#!/usr/bin/env python3
"""Check that a change keeps the outputs of a parent tree, op by op.

    python scripts/same_outputs.py PARENT_DIR [--seeds 301 302]

PARENT_DIR is a checkout of the parent commit, for example one unpacked
from `git archive`.  In one interpreter per tree, with that tree's src/ first
on the path, this runs through luxglue.cli.main:
* every op of `bench/workloads.op_set(name, seed)` for the four benchmark
  workloads and each seed, adding --table to each counterexample op and
  --h-csv to each glue-export op;
* the README's command lines that read no input file.

Both trees run the op lists of this checkout's bench/workloads.py (read,
never edited) and README.md, each op in an empty working directory with
relative output names, so no temporary path reaches a report.  The script
compares exit codes, stdout, stderr, reports (with `meta` dropped) and the
bytes of every file an op writes.  It prints each difference, then a count
per differing key, and exits 1 if there is any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = "report.json"
# One interpreter per tree: that tree's src/ goes first on the path.
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import same_outputs; "
         "same_outputs.collect(*sys.argv[3:])")
# One BLAS thread, as in the benchmark: a threaded reduction may sum in another order.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def readme_commands(readme: Path) -> list[list[str]]:
    """The `luxglue ...` lines of the README's shell blocks, continuations
    joined, without those that read an input file (--data)."""
    commands, line = [], ""
    for raw in readme.read_text(encoding="utf-8").splitlines():
        line += raw.split("#", 1)[0].strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if line.startswith("luxglue ") and "--data" not in line:
            commands.append(shlex.split(line)[1:])
        line = ""
    return commands


def op_list(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every op, output flags included."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    ops = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for i, op in enumerate(workloads.op_set(name, seed)):
                argv = op.full_argv(REPORT, "h.csv")
                if op.argv[0] == "counterexample":
                    argv += ["--table", "table.csv"]
                ops.append((f"{name}/{seed}/{i}", argv))
    for i, argv in enumerate(readme_commands(ROOT / "README.md")):
        ops.append((f"readme/{i}", argv + ["--out", REPORT]))
    return ops


def collect(out: str, *seeds: str) -> None:
    """Run every op in this interpreter and write its outputs to `out`."""
    from luxglue import cli

    outputs = {"luxglue": cli.__file__}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for label, argv in op_list([int(s) for s in seeds]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a raising op is an output to compare
                    code = f"raised {type(exc).__name__}: {exc}"
            report, files = None, {}
            for name in sorted(os.listdir(work)):
                data = Path(name).read_bytes()
                os.remove(name)
                if name == REPORT:
                    report = json.loads(data)
                    report.pop("meta", None)
                else:
                    files[name] = f"{len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}"
            outputs[label] = {"argv": " ".join(argv), "code": code,
                              "stdout": stdout.getvalue().replace(work, "<work>"),
                              "stderr": stderr.getvalue().replace(work, "<work>"),
                              "report": report, "files": files}
    Path(out).write_text(json.dumps(outputs), encoding="utf-8")


def run_tree(tree: Path, seeds: list[int], out: Path) -> dict:
    env = {**os.environ, **{name: "1" for name in PINNED_THREADS}}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), str(ROOT / "scripts"),
                           str(out), *map(str, seeds)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"collecting the outputs of {tree} failed:\n{proc.stderr}")
    outputs = json.loads(out.read_text(encoding="utf-8"))
    if not Path(outputs.pop("luxglue")).is_relative_to(tree / "src"):
        sys.exit(f"{tree}: luxglue was not imported from its src/")
    return outputs


def leaves(obj, prefix: str) -> dict[str, str]:
    """Path -> JSON text of each leaf.  A record with a name, such as a
    verdict, is one leaf keyed by its name, so an added verdict reads as one
    new key, not as every later one shifted."""
    if isinstance(obj, dict) and "name" not in obj:
        items = ((f".{k}", v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"[{v['name']}]" if isinstance(v, dict) and "name" in v else f"[{i}]", v)
                 for i, v in enumerate(obj))
    else:
        return {prefix: json.dumps(obj)}
    out = {}
    for key, value in items:
        out.update(leaves(value, prefix + key))
    return out


def differences(old: dict, new: dict) -> list[tuple[str, str, str]]:
    """(key, parent value, change value) for each output that differs."""
    a = {k: json.dumps(v) for k, v in old.items() if k != "report"}
    b = {k: json.dumps(v) for k, v in new.items() if k != "report"}
    if old["report"] is not None or new["report"] is not None:
        a.update(leaves(old["report"], "report"))
        b.update(leaves(new["report"], "report"))
    missing = "(absent)"
    return [(k, a.get(k, missing), b.get(k, missing))
            for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 302])
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(args.parent.resolve(), args.seeds, Path(tmp) / "parent.json")
        change = run_tree(ROOT, args.seeds, Path(tmp) / "change.json")
    by_key, differing = Counter(), 0
    for label in sorted(parent.keys() | change.keys()):
        if label not in parent or label not in change:
            print(f"{label}: run on one tree only")
            differing += 1
            continue
        diffs = differences(parent[label], change[label])
        differing += bool(diffs)
        for key, old, new in diffs:
            by_key[f"{label.split('/')[0]}: {key}"] += 1
            print(f"{label} ({change[label]['argv']}): {key}: {old} -> {new}")
    for key, count in sorted(by_key.items()):
        print(f"{count:5d} ops differ in {key}")
    print(f"{len(change)} ops, {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
