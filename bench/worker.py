"""One workload in one process: the timed closed loop, or the traced run.

Started by run.py with luxglue's source on PYTHONPATH and BLAS/OpenMP
pinned to one thread; prints one JSON object on its last stdout line.

Untraced (--trace 0): one warm-up op, then passes over the run's op set,
op after op, each started when the previous one returned, until --seconds
have passed and at least MIN_OPS ops were timed.  Between ops the worker
times a fixed reference kernel (interpreter loop, numpy array work and
float formatting, about 10 ms, no luxglue code).  This host's speed drifts
by up to a factor of 1.8 in spells of seconds to minutes; an op's wall time divided by
the mean of the kernel times just before and just after it is its cost in
reference units, which that drift leaves nearly unchanged.  Traced
(--trace 1): the warm-up op, then each op of the set's trace prefix once
untraced and once under the span recorder; per-layer metrics come from the
traced runs and the ratio of the two walls gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

MIN_OPS = 100  # so that a 90th percentile has at least ten ops above it
MAX_LOOP_S = 140.0  # the loop never runs longer, whatever MIN_OPS says

_REF_X = np.linspace(0.0, 4.0, 50_000)
_REF_FLOATS = (_REF_X[:3000] * math.pi).tolist()


def reference_kernel() -> int:
    """Fixed work that uses no luxglue code, of the three kinds luxglue's
    reports are made of: interpreter arithmetic, numpy array arithmetic, and
    float-to-text formatting as in its CSV tables."""
    total = 0.0
    for i in range(16000):
        total += math.sqrt(i)
    for _ in range(12):
        total += float(np.log1p(np.exp(-_REF_X)).sum())
    return len(",".join(repr(v) for v in _REF_FLOATS)) + int(total)


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Runner:
    """Runs ops through luxglue.cli.main in this process and checks them."""

    def __init__(self, workload: str, workdir: Path) -> None:
        from luxglue import cli

        self.cli = cli
        self.workload = workload
        self.report = str(workdir / "report.json")
        self.h_csv = str(workdir / "h.csv")
        self.attempted = 0
        self.failed = 0
        self.by_design = 0
        self.bytes_written = 0
        self.errors: list[str] = []

    def run(self, op: workloads.Op, call=None) -> tuple[float, bool]:
        """Run one op (through `call(main, argv)` when given); return its wall
        time and whether it passed every check."""
        for path in (self.report, self.h_csv):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        argv = op.full_argv(self.report, self.h_csv)
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = call(self.cli.main, argv) if call else self.cli.main(argv)
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse rejected the argv
            code, error = None, f"argparse exit {exc.code}: {stderr.getvalue().strip()[-200:]}"
        wall = time.perf_counter() - start
        if code is not None:
            error = workloads.check(self.workload, op, code, self.report,
                                    self.h_csv if op.h_csv else None)
        self.attempted += 1
        if error is None:
            self.by_design += bool(op.expect_fail)
            self.bytes_written += sum(os.path.getsize(p) for p in
                                      ([self.report, self.h_csv] if op.h_csv else [self.report]))
            return wall, True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{' '.join(op.argv)}: {error}")
        return wall, False


def timed_loop(runner: Runner, ops: list, seconds: float) -> dict:
    """Passes over `ops` until `seconds` have passed and MIN_OPS ops were
    timed; per op run, its wall time and its cost in reference units."""
    walls, costs, refs, items = [], [], [], 0
    ref_before = time_reference()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
        op = ops[i % len(ops)]
        wall, ok = runner.run(op)
        ref_after = time_reference()
        walls.append(wall)
        costs.append(2.0 * wall / (ref_before + ref_after))
        items += op.items if ok else 0
        refs.append(ref_after)
        ref_before = ref_after
        i += 1
    return {"walls": walls, "costs": costs, "items": items, "set_size": len(ops),
            "ref_s": sorted(refs)[len(refs) // 2],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_run(runner: Runner, ops: list, workload: str, spans_path: Path) -> dict:
    """Each op of the trace prefix runs untraced, then traced; interleaving
    keeps drift in machine speed out of the overhead ratio."""
    rec = spans.Recorder()
    untraced = traced = 0.0
    bytes_traced = 0
    for i, op in enumerate(ops[:workloads.TRACE_OPS[workload]]):
        untraced += runner.run(op)[0]
        before = runner.bytes_written
        rec.install()
        try:
            traced += runner.run(op, lambda main, argv: rec.run_op(i, main, argv))[0]
        finally:
            rec.uninstall()
        bytes_traced += runner.bytes_written - before
    metrics = spans.layer_metrics(rec.spans)
    metrics["cli.bytes_written"] = (bytes_traced, "B")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "value", "key"],
                   "spans": rec.spans}, fh)
    return {"layer_metrics": metrics, "spans_file": str(spans_path),
            "trace_ops": workloads.TRACE_OPS[workload]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path, required=True)
    args = ap.parse_args()

    import luxglue
    import numpy

    runner = Runner(args.workload, args.workdir)
    ops = workloads.op_set(args.workload, args.seed)
    runner.run(ops[0])  # warm-up: imports and lazy tables, checked, not timed
    if args.trace:
        result = traced_run(runner, ops, args.workload, args.spans_out)
    else:
        result = timed_loop(runner, ops, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed, by_design=runner.by_design,
                  errors=runner.errors, numpy=numpy.__version__, luxglue=luxglue.__file__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
