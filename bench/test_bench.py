"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _argvs(name: str, seed: int) -> list[tuple[str, ...]]:
    return [op.argv for op in workloads.op_set(name, seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    assert _argvs(name, 7) == _argvs(name, 7)
    assert _argvs(name, 7) != _argvs(name, 8)


def test_blocks_hold_every_combination_once():
    chart = workloads.op_set("chart-sweep", 3)
    for b in range(0, len(chart), 6):
        assert sorted((op.argv[2], op.items) for op in chart[b:b + 6]) == [
            (n, w + 1) for n in ("2", "3") for w in (1, 2, 3)]
    norm = workloads.op_set("norm-sweep", 3)
    for b in range(0, len(norm), 10):
        assert sum(op.argv[0] == "holder-young" for op in norm[b:b + 10]) == 3
    assert sum("poly" in op.argv for op in norm) == sum("exp-exp" in op.argv for op in norm)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cost_parameters_are_stratified(seed):
    # with m ops of a kind, their sorted cost parameter has one value in each
    # of m equal slices of its range (less one where it is truncated to int)
    def one_per_slice(values, lo, hi):
        m = len(values)
        return all(lo + (hi - lo) * i / m - 1 < v < lo + (hi - lo) * (i + 1) / m
                   for i, v in enumerate(sorted(values)))

    chart = workloads.op_set("chart-sweep", seed)
    for n, w in ((n, w) for n in ("2", "3") for w in (1, 2, 3)):
        ks = [op.expect["kmin"] for op in chart if op.argv[2] == n and op.items == w + 1]
        assert len(ks) == workloads.BLOCKS["chart-sweep"] and one_per_slice(ks, 5, 40)
    vanishing = workloads.op_set("vanishing", seed)[::3]
    assert one_per_slice([int(op.argv[-1]) for op in vanishing], 1024, 2049)
    assert one_per_slice([op.expect["k"] for op in vanishing], 0.5, 4.0)


def test_cost_divides_wall_by_the_bracketing_reference_times(monkeypatch):
    refs = itertools.count(1.0, 2.0)
    monkeypatch.setattr(worker, "time_reference", lambda: next(refs))

    class FixedRunner:
        def run(self, op):
            return 4.0, True

    ops = [workloads.Op(("report",), items=2, expect={})] * 3
    res = worker.timed_loop(FixedRunner(), ops, 0.0)  # time is up at once
    assert len(res["walls"]) == worker.MIN_OPS and set(res["walls"]) == {4.0}
    assert res["costs"][:2] == [2.0, 1.0]  # 4 / mean(1, 3) and 4 / mean(3, 5)
    assert res["items"] == 2 * worker.MIN_OPS


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0.0, ""]


def test_self_time_of_nested_spans():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.inner", 5.0, 6.0, 3),
        _span("b.inner", 7.0, 9.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),
        _span("c", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_wraps_every_binding_and_links_parents(tmp_path):
    from luxglue import cli, gluing, radialpsh

    original = gluing.glue
    rec = spans.Recorder()
    rec.install()
    try:
        assert radialpsh.glue is gluing.glue is cli.glue is not original
        code = rec.run_op(0, cli.main, [
            "glue", "--mode", "radial", "--eps", "0.001", "--left-fn", "feps",
            "--left-interval", "0.015625,0.0625", "--right-fn", "log1p",
            "--right-interval", "1,4", "--out", str(tmp_path / "r.json")])
    finally:
        rec.uninstall()
    assert code == 0 and gluing.glue is original and radialpsh.glue is original
    names = [s[spans.NAME] for s in rec.spans]
    outer = names.index("gluing.glue")
    chain = []
    p = outer
    while p >= 0:
        chain.append(names[p])
        p = rec.spans[p][spans.PARENT]
    assert chain == ["gluing.glue", "cli.cmd", "cli.main", "op"]
    inner = [i for i, s in enumerate(rec.spans) if s[spans.NAME] == "gluing.glue"][1]
    assert rec.spans[inner][spans.PARENT] != -1  # the log-coordinate glue nests
    m = spans.layer_metrics(rec.spans)
    assert m["gluing.glue.calls"] == (2, "count")
    assert m["gluing.h_eval.points"][0] > 0


def _chart_op(k=20, w=1):
    return workloads.Op(("counterexample", "--n", "2", "--kmin", str(k), "--kmax", str(k + w)),
                        items=w + 1, expect={"n": 2, "kmin": k, "kmax": k + w})


def test_checks_recompute_instead_of_trusting_verdicts(tmp_path):
    from luxglue import cli

    op = _chart_op()
    out = tmp_path / "r.json"
    assert cli.main(list(op.argv) + ["--out", str(out)]) == 0
    assert workloads.check("chart-sweep", op, 0, str(out), None) is None
    report = json.loads(out.read_text())
    report["results"]["table"][0]["osc"] *= 1 + 1e-9  # verdicts still pass
    out.write_text(json.dumps(report))
    assert "closed form" in workloads.check("chart-sweep", op, 0, str(out), None)


def test_exit_two_and_missing_report_fail(tmp_path):
    op = _chart_op()
    assert "exit 2" in workloads.check("chart-sweep", op, 2, str(tmp_path / "r.json"), None)
    assert "no readable report" in workloads.check("chart-sweep", op, 0,
                                                   str(tmp_path / "r.json"), None)


def _run_bench(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "norm-sweep",
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_declared_metric_is_printed_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run_bench(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m.get("unit") for m in declared[key]}
        assert set(result["metrics"]) == set(want)
        for name, unit in want.items():
            assert result["metrics"][name]["unit"] == unit
            assert any(line.split()[:1] == [name] and unit in line.split() for line in text)
        if trace == 0:
            assert any(line.split()[:3] == ["failed_frac", "0", "ratio"] for line in text)
            assert any(line.split()[0] == "op_s.p50" and " ops" in line for line in text)
