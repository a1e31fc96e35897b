"""luxglue benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {chart-sweep,norm-sweep,vanishing,glue-export,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds luxglue's source in src/.
Each workload runs in its own worker process (worker.py) with BLAS and
OpenMP pinned to one thread: one closed-loop caller, the next report
starting when the previous one returned.  --trace 0 measures the
end-to-end metrics over passes through the run's seeded op set, each op
timed against a reference kernel run beside it; --trace 1 is a separate traced run that gives the
per-layer metrics.  Every op's outputs are checked.  Human-readable lines
come first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYERS
from worker import MIN_OPS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 7  # fresh interpreters per run; setup_s is their median
# Printed for reading but left out of the JSON metrics: wall-clock figures
# follow this host's speed drift, and failed_frac is 0 on a correct program.
PRINTED_ONLY = ("op_s.p50", "op_s.p90", "work_per_s", "failed_frac")
WORKLOAD_BUDGET_S = 170  # probes plus worker; the worker's own loop stops at 140 s

# A fresh interpreter that imports the CLI, runs one report and prints the
# clock reading at its end (CLOCK_MONOTONIC is shared between processes).
PROBE = ("import json, sys, time\n"
         "from luxglue.cli import main\n"
         "code = main(json.loads(sys.argv[1]))\n"
         "print(time.monotonic(), code)\n")

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"the run passed its {WORKLOAD_BUDGET_S} s budget") from exc


def setup_probes(name: str, seed: int, workdir: Path,
                 deadline: float) -> tuple[list[float], list[str]]:
    """Set-up time of SETUP_SPAWNS fresh interpreters, each up to the end of
    its first op (op i of the stream for spawn i), and the errors of the
    probes that failed."""
    report, h_csv = workdir / "probe.json", workdir / "probe_h.csv"
    times, errors = [], []
    for op in workloads.op_set(name, seed)[:SETUP_SPAWNS]:
        for path in (report, h_csv):
            path.unlink(missing_ok=True)
        argv = op.full_argv(str(report), str(h_csv))
        start = time.monotonic()
        proc = run_child([sys.executable, "-c", PROBE, json.dumps(argv)], deadline)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2:
            error = f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            error = workloads.check(name, op, int(fields[1]), str(report),
                                    str(h_csv) if op.h_csv else None)
            times.append(float(fields[0]) - start)
        if error:
            errors.append(f"setup probe {' '.join(op.argv)}: {error}")
    return times, errors


def run_worker(name: str, args: argparse.Namespace, workdir: Path, deadline: float) -> dict:
    spans_out = ROOT / ".bench_out" / f"spans-{name}-seed{args.seed}.json"
    proc = run_child([sys.executable, str(BENCH / "worker.py"), "--workload", name,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--workdir", str(workdir),
                      "--spans-out", str(spans_out)], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not Path(result["luxglue"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported luxglue from {result['luxglue']}, not from {SRC}")
    return result


def end_to_end(res: dict, setup: list[float], item: str) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, basis) rows of the untraced run."""
    walls, costs, items = res["walls"], res["costs"], res["items"]
    n = len(walls)
    basis = f"{n} op runs over a set of {res['set_size']} ops"
    rows = [("setup_s", statistics.median(setup), "s",
             f"median of {len(setup)} fresh interpreters")] if setup else []
    rows.append(("op_ref.p50", statistics.median(costs), "ref",
                 f"{basis}; wall / reference kernel"))
    if n >= MIN_OPS:
        rows.append(("op_ref.p90", statistics.quantiles(costs, n=10)[8], "ref",
                     f"{basis}, {n - int(0.9 * n)} above"))
    rows.append(("work_per_ref", items / sum(costs), "items/ref",
                 f"{items} {item} in {sum(costs):.1f} reference-kernel times"))
    rows.append(("op_s.p50", statistics.median(walls), "s", basis))
    if n >= MIN_OPS:
        rows.append(("op_s.p90", statistics.quantiles(walls, n=10)[8], "s",
                     f"{basis}, {n - int(0.9 * n)} above"))
    rows.append(("work_per_s", items / sum(walls), "items/s",
                 f"{items} {item} in {sum(walls):.2f} s of op wall time"))
    rows.append(("failed_frac", res["failed"] / res["attempted"], "ratio",
                 f"{res['failed']} of {res['attempted']} attempted"))
    rows.append(("peak_rss_mb", res["peak_rss_mb"], "MiB", "ru_maxrss of the worker"))
    return rows


def layer_shares(metrics: dict) -> str:
    busy = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    total = sum(busy.values()) or 1.0
    return ", ".join(f"{layer} {t / total:.1%}"
                     for layer, t in sorted(busy.items(), key=lambda kv: -kv[1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "luxglue" / "cli.py").is_file():
        print(f"error: luxglue source not found at {SRC / 'luxglue'}", file=sys.stderr)
        return 1

    import numpy
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"cpu={cpu_model()!r} threads_pinned=1")
    print(f"config workloads={','.join(names)} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} load=closed-loop,1-caller setup_spawns={SETUP_SPAWNS}")

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            deadline = time.monotonic() + WORKLOAD_BUDGET_S
            setup, errors = ([], []) if args.trace else \
                setup_probes(name, args.seed, workdir, deadline)
            res = run_worker(name, args, workdir, deadline)
            worker_ops = res["attempted"]
            res["attempted"] += 0 if args.trace else SETUP_SPAWNS
            res["failed"] += len(errors)
            attempted += res["attempted"]
            failed += res["failed"]
            print(f"workload {name}: {wl.why}")
            if args.trace:
                rows = [(k, v, u, "") for k, (v, u) in res["layer_metrics"].items()]
                print(f"  layer self-time share: {layer_shares(res['layer_metrics'])}")
                print(f"  {res['trace_ops']} traced ops, each also run untraced; "
                      f"spans written to {res['spans_file']}")
            else:
                rows = end_to_end(res, setup, wl.item)
                print(f"  reference kernel: median {res['ref_s'] * 1e3:.3f} ms over the run")
                if res["by_design"]:
                    print(f"  by design: appendix_integral_uniform failed as expected "
                          f"on {res['by_design']} of the worker's {worker_ops} ops")
            for key, value, unit, basis in rows:
                print(f"  {key:<46} {value:>14.6g} {unit:<8} {basis}")
            for error in errors + res["errors"]:
                print(f"  FAILED {error}")
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: {"value": v, "unit": u} for k, v, u, _ in rows
                            if k not in PRINTED_ONLY})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
