import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue import cli, degiorgi, orlicz
from luxglue.cli import _write_csv_table, main, read_data_csv
from luxglue.errors import BadConfig, FileFormat
from luxglue.gluing import GlueProblem, glue
from luxglue.numgrid import Interval


def run_cli(args):
    return main(args)


def load_without_meta(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("meta", None)
    return report


def test_orlicz_norm_builtin_constant(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli([
        "orlicz-norm", "--builtin", "poly", "--coeffs", "1", "--young", "1,1,0",
        "--interval", "0,1", "--out", str(out),
    ])
    assert code == 0
    report = load_without_meta(out)
    # unit density on a unit-mass measure: frozen scalar oracle
    assert report["results"]["norm"] == pytest.approx(0.80646599423632680877, abs=1e-8)


def test_orlicz_norm_pnorm_mode(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli([
        "orlicz-norm", "--builtin", "poly", "--coeffs", "0,1", "--young", "2,0,0",
        "--interval", "0,1", "--panels", "16", "--order", "8", "--out", str(out),
    ])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["norm"] == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-8)


def test_orlicz_norm_reports_its_objective_evaluations(tmp_path, monkeypatch):
    counted = []

    def counting(x, w, exps, c):
        counted.append(len(c))
        return objective(x, w, exps, c)

    objective = orlicz._objective
    monkeypatch.setattr(orlicz, "_objective", counting)
    out = tmp_path / "r.json"
    assert run_cli(["orlicz-norm", "--builtin", "exp-exp", "--young", "1.5,2,1",
                    "--interval", "0,1", "--out", str(out)]) == 0
    assert load_without_meta(out)["results"]["objective_evals"] == sum(counted) > 0


def test_orlicz_norm_zero_data(tmp_path):
    data = tmp_path / "zero.csv"
    data.write_text("t,weight,value\n0.0,0.5,0.0\n1.0,0.5,0.0\n", encoding="utf-8")
    out = tmp_path / "r.json"
    code = run_cli(["orlicz-norm", "--data", str(data), "--out", str(out)])
    assert code == 0
    assert load_without_meta(out)["results"]["norm"] == 0.0


def test_data_round_trip(tmp_path):
    emitted = tmp_path / "data.csv"
    out1 = tmp_path / "r1.json"
    run_cli([
        "orlicz-norm", "--builtin", "feps", "--eps", "0.01", "--young", "1,2,1",
        "--interval", "0.001,0.25", "--panels", "12", "--order", "6",
        "--emit-data", str(emitted), "--out", str(out1),
    ])
    out2 = tmp_path / "r2.json"
    run_cli(["orlicz-norm", "--data", str(emitted), "--young", "1,2,1",
             "--out", str(out2)])
    n1 = load_without_meta(out1)["results"]["norm"]
    n2 = load_without_meta(out2)["results"]["norm"]
    assert abs(n1 - n2) <= 1e-12 * max(1.0, n1)


_BAD_DATA = [
    pytest.param("x,y,z\n1,2,3\n", "header", id="bad-header"),
    pytest.param("t,weight,value\r\n0.1,1\r\n", "line 2 has 2 fields", id="short-row"),
    pytest.param("t,weight,value\r\n0.1,1,2\r\n0.2,1\r\n", "line 3 has 2 fields", id="ragged"),
    pytest.param("t,weight,value\r\n0.1,1,2,9\r\n", "line 2 has 4 fields", id="four-fields"),
    pytest.param("t,weight,value\r\n" + "1" * 200_000 + ",1,1\r\n", "line 2: field larger",
                 id="oversized-field"),
    pytest.param("t,weight,value\r\nnan,1,1\r\n0.5,1,1\r\n", "line 2 holds a non-finite",
                 id="nan-t"),
]


@pytest.mark.parametrize("text,match", _BAD_DATA)
def test_read_data_csv_rejects_bad_header(tmp_path, text, match):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.encode("utf-8"))
    with pytest.raises(FileFormat, match=match):
        read_data_csv(str(bad))


def test_malformed_data_file_exits_2_with_one_json_object(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_bytes(b"t,weight,value\r\n0.1,1\r\n")
    assert run_cli(["orlicz-norm", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    payload, end = json.JSONDecoder().raw_decode(err)
    assert err[end:].strip() == ""
    assert payload["command"] == "orlicz-norm" and payload["error"] == "FileFormat"


def test_holder_young_sweep_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = run_cli(["holder-young", "--sweep", "50", "--seed", "42",
                        "--out", str(out)])
        assert code == 0
    r1, r2 = load_without_meta(out1), load_without_meta(out2)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["results"]["violations"] == 0


_GLUE = ["glue", "--left-coeffs", "0,0,1", "--right-coeffs", "0,0,1", "--right-interval", "3,4"]
_MATCH = ["restriction_match_left", "restriction_match_right"]
# The verdicts of each kind of report, by name in report order: the benchmark
# matches failing verdicts by name.
_VERDICT_NAMES = {
    "orlicz-norm": (["orlicz-norm"], ["normalization_objective_le_1", "integral_le_norm_powers"]),
    "holder-young": (["holder-young"], ["bound_holds"]),
    "holder-young-sweep": (["holder-young", "--sweep", "3"], ["sweep_zero_violations"]),
    "degiorgi-formula": (["degiorgi", "--mode", "formula"], ["t_gamma_finite"]),
    "degiorgi-simulate": (["degiorgi", "--mode", "simulate", "--nodes", "256"],
                          ["vanishing_verified", "decay_chain"]),
    "degiorgi-sharpness": (["degiorgi", "--mode", "sharpness", "--nodes", "256"],
                           ["sup_le_bound"]),
    "glue-strict": (_GLUE + ["--mode", "strict", "--left-interval", "0,1"],
                    _MATCH + ["inf_h2_ge_certified", "sup_h2_le_certified"]),
    "glue-convex": (_GLUE + ["--mode", "convex", "--left-interval", "0,1"],
                    _MATCH + ["sup_h2_le_certified"]),
    "glue-radial": (_GLUE + ["--mode", "radial", "--left-interval", "0.5,1"],
                    _MATCH + ["inf_h2_ge_certified", "sup_h2_le_certified", "h1_positive",
                              "det_le_certified"]),
    "counterexample": (["counterexample", "--kmin", "5", "--kmax", "6"],
                       ["ent_plateau_r_1", "ent_increasing_r_3", "osc_strictly_increasing",
                        "appendix_integral_uniform", "ent_le_integral_bound"]),
}


@pytest.mark.parametrize("kind", sorted(_VERDICT_NAMES))
def test_every_verdict_passes_under_its_pinned_name(tmp_path, kind):
    argv, names = _VERDICT_NAMES[kind]
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    verdicts = load_without_meta(out)["verdicts"]
    assert [v["name"] for v in verdicts] == names and all(v["passed"] for v in verdicts)


# A forced violation of each bound the library reports fails that one verdict
# in a written report with exit 1, never as a domain error with exit 2.  Each
# entry: argv, and the attribute to patch with a wrapper of its original.
_VIOLATIONS = {
    "sweep_zero_violations": (["holder-young", "--sweep", "300"], orlicz,
                              "holder_young_constant", lambda f: lambda params: 1e-12),
    "bound_holds": (["holder-young"], orlicz, "holder_young_constant",
                    lambda f: lambda params: 1e-12),
    "integral_le_norm_powers": (["orlicz-norm"], orlicz, "phi",
                                lambda f: lambda params, t: 1e6 * f(params, t)),
    "sup_le_bound": (["degiorgi", "--mode", "sharpness", "--nodes", "256"], degiorgi,
                     "_log_log1p_exp_exp", lambda f: lambda t: f(t) + 5.0),
    # a profile never exactly 0; the smallest double stays below every chain bound
    "vanishing_verified": (["degiorgi", "--mode", "simulate", "--nodes", "256"],
                           degiorgi.LevelSetFn, "value_at_first_node_geq",
                           lambda f: lambda self, t: (f(self, t)[0], f(self, t)[1] or 5e-324)),
    # k >= 20, where appendix_integral_uniform holds
    "ent_le_integral_bound": (["counterexample", "--kmin", "20", "--kmax", "21"], orlicz,
                              "luxemburg_norms", lambda f: lambda fs, params: [
                                  dataclasses.replace(res, norm=1000.0 * res.norm)
                                  for res in f(fs, params)]),
}


@pytest.mark.parametrize("name", list(_VIOLATIONS))
def test_violated_bound_exits_1_with_its_report(tmp_path, monkeypatch, name):
    argv, owner, attr, wrap = _VIOLATIONS[name]
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(out)]) == 1
    report = load_without_meta(out)
    assert [v["name"] for v in report["verdicts"] if not v["passed"]] == [name]
    if name == "sweep_zero_violations":
        assert report["results"]["violations"] == report["results"]["sweep"] == 300


# max_ratio is frozen from the batched solver whose norm is the narrowed known
# side.  The orlicz-norm report's norm lies in the bracket that plain bisection
# gave, [0.06798720009159646, 0.06798720009595094], widened by the narrowing's
# relative 1e-13 (docs/DECISIONS.md, section 5, fact 5).
def test_batched_reports_keep_the_scalar_solver_bits(tmp_path):
    out = tmp_path / "hy.json"
    assert run_cli(["holder-young", "--sweep", "1000", "--seed", "0", "--out", str(out)]) == 0
    assert repr(load_without_meta(out)["results"]["max_ratio"]) == "0.40048189549155616"
    out = tmp_path / "on.json"
    assert run_cli(["orlicz-norm", "--builtin", "feps", "--eps", "0.01", "--interval",
                    "0.001,0.25", "--panels", "64", "--order", "16", "--out", str(out)]) == 0
    res = load_without_meta(out)["results"]
    a, b = res["bracket"]
    assert 0.06798720009159646 < res["norm"] == b <= 0.06798720009595094 * (1.0 + 1e-13)
    assert b <= a * (1.0 + 1e-13) and res["objective_at_norm"] <= 1.0


def test_holder_young_zero_mass_exit_code(tmp_path, capsys):
    code = run_cli(["holder-young", "--space-mass", "0", "--indicator-mass", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ZeroMass" in err


def test_degiorgi_formula(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["degiorgi", "--mode", "formula", "--C", "1", "--alpha", "1",
                    "--beta", "2", "--gamma", "2", "--f0", "1", "--out", str(out)])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["t_gamma"] == pytest.approx(
        22.630989917543453427, rel=1e-12)


def test_degiorgi_gamma_out_of_range_exit(capsys):
    code = run_cli(["degiorgi", "--mode", "formula", "--beta", "2",
                    "--gamma", "3.0"])
    assert code == 2
    assert "GammaOutOfRange" in capsys.readouterr().err


def test_dispatch_reads_the_handler_at_call_time(tmp_path, monkeypatch):
    # a span recorder or a test may rebind cli.cmd_* after the parser is cached
    out = tmp_path / "r.json"
    assert run_cli(["degiorgi", "--mode", "formula", "--out", str(out)]) == 0
    calls = []

    def patched(args):
        calls.append(args.mode)
        return {"patched": True}, {}, []

    monkeypatch.setattr(cli, "cmd_degiorgi", patched)
    assert run_cli(["degiorgi", "--mode", "sharpness", "--out", str(out)]) == 0
    assert calls == ["sharpness"]
    assert load_without_meta(out)["inputs"] == {"patched": True}
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.cache_info().misses == 1


def test_parser_is_built_on_first_use_only():
    code = ("import luxglue.cli as c; assert c.build_parser.cache_info().misses == 0; "
            "[c.main(['degiorgi', '--mode', 'formula']) for _ in range(3)]; "
            "assert c.build_parser.cache_info().misses == 1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_parser_default_is_mutable():
    # the one parser serves every parse, so a mutable default could carry
    # state from one command line to the next
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["counterexample", "degiorgi", "glue", "holder-young",
                                   "orlicz-norm"]
    parsers = [parser, *sub.choices.values()]
    mutable = [(p.prog, a.dest) for p in parsers for a in p._actions
               if isinstance(a.default, (list, dict, set))]
    mutable += [(p.prog, k) for p in parsers for k, v in p._defaults.items()
                if isinstance(v, (list, dict, set))]
    assert mutable == []


def test_degiorgi_simulate_reports_scan_counters(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["degiorgi", "--mode", "simulate", "--k", "2", "--alpha", "1",
                    "--beta", "2", "--gamma", "1.5", "--nodes", "600", "--out", str(out)])
    assert code == 0
    results = load_without_meta(out)["results"]
    # the default grid ends at 1.5, short of the ~8.8 threshold: one refit
    assert results["grid_extensions"] == 1
    assert results["pairs_checked"] > 0


@pytest.mark.parametrize("argv", [
    ["degiorgi", "--mode", "sharpness", "--nodes", "8"],
    ["degiorgi", "--mode", "simulate", "--nodes", "1"],
    ["degiorgi", "--mode", "simulate", "--k", "-1"],
    ["degiorgi", "--mode", "simulate", "--alpha", "0"],
    ["degiorgi", "--mode", "formula", "--f0", "-1"],
    ["degiorgi", "--mode", "sharpness", "--alpha", "0"],
    ["counterexample", "--n", "1"],
    ["counterexample", "--kmin", "3", "--kmax", "5"],
    ["counterexample", "--kmin", "10", "--kmax", "5"],
    ["counterexample", "--kmin", "5", "--kmax", "5"],
    ["counterexample", "--r", "-1"],
    ["counterexample", "--kmin", "5", "--kmax", "6", "--detail-k", "2"],
    ["holder-young", "--young", "0.5,0,0"],
    ["orlicz-norm", "--interval", "1,0"],
    ["orlicz-norm", "--panels", "0"],
    ["orlicz-norm", "--order", "1"],
    ["glue", "--mode", "strict", "--left-fn", "poly", "--left-coeffs", "0,0,1",
     "--left-interval", "0,2", "--right-fn", "poly", "--right-coeffs", "0,0,1",
     "--right-interval", "1,3"],
    # rejected command lines
    [],
    ["bogus"],
    ["glue", "--mode", "strict", "--left-interval", "a,1", "--right-interval", "3,4"],
    ["glue", "--mode", "strict", "--left-interval", "0,1,2", "--right-interval", "3,4"],
    ["glue", "--mode", "strict", "--left-coeffs", "1,", "--left-interval", "0,1",
     "--right-interval", "3,4"],
    ["glue", "--mode", "strict"],
    ["glue", "--mode", "bogus", "--left-interval", "0,1", "--right-interval", "3,4"],
    ["glue", "--mode", "strict", "--left-coeffs", "0,0,1", "--right-coeffs", "0,0,1",
     "--left-interval", "0,1", "--right-interval", "3,4", "--h-csv", "h.csv",
     "--h-points=-1"],
    ["orlicz-norm", "--young", "1,x,0"],
    ["orlicz-norm", "--coeffs", "1,zz"],
    ["orlicz-norm", "--no-such-option", "1"],
    ["counterexample", "--n", "abc"],
    ["counterexample", "--n"],
    ["holder-young", "--seed=-1"],
    ["degiorgi", "--mode", "simulate", "--nodes=-1"],
    ["degiorgi", "--mode", "formula", "--bet", "2"],  # options are spelled in full
    ["degiorgi", "--mode", "formula", "--C", "inf"],
    ["degiorgi", "--mode", "formula", "--f0", "inf"],
    ["degiorgi", "--mode", "simulate", "--k", "nan"],
    ["degiorgi", "--mode", "sharpness", "--alpha", "nan"],
    ["degiorgi", "--mode", "sharpness", "--alpha", "inf"],
    ["degiorgi", "--mode", "formula", "--beta", "3", "--T", "inf"],
    *(["glue", "--mode", "radial", "--eps", eps, "--left-fn", "feps",
       "--left-interval", "0.015625,0.0625", "--right-fn", "log1p", "--right-interval", "1,4"]
      for eps in ("nan", "-1", "inf")),
    ["orlicz-norm", "--builtin", "feps", "--eps", "nan", "--interval", "0,0.25"],
    ["holder-young", "--sweep", "-5"],
    # the quadruple-log family is a function of t = |z|^2 >= 0
    ["orlicz-norm", "--builtin", "feps", "--eps", "0.001", "--interval=-1,0.25"],
    ["orlicz-norm", "--builtin", "feps", "--eps", "0.001", "--interval=-0.0005,0.25"],
    # an --eps that no feps family reads
    ["glue", "--mode", "strict", "--eps", "0.5", "--left-fn", "poly", "--left-coeffs", "0,0,1",
     "--left-interval", "0,1", "--right-fn", "poly", "--right-coeffs", "0,0,1",
     "--right-interval", "3,4"],
    ["orlicz-norm", "--builtin", "poly", "--eps", "0.5"],
    ["orlicz-norm", "--data", "unread.csv", "--eps", "0.5"],
    # coefficients that no poly piece reads
    ["orlicz-norm", "--builtin", "exp-exp", "--coeffs", "1,2"],
    ["orlicz-norm", "--builtin", "log1p", "--coeffs", "1"],
    ["orlicz-norm", "--builtin", "feps", "--eps", "0.001", "--interval", "0,0.25",
     "--coeffs", "1"],
    ["orlicz-norm", "--data", "unread.csv", "--coeffs", "1"],
    ["glue", "--mode", "strict", "--left-fn", "log1p", "--left-coeffs", "0,1",
     "--left-interval", "0,1", "--right-fn", "poly", "--right-coeffs", "0,0,1",
     "--right-interval", "3,4"],
    ["glue", "--mode", "convex", "--left-fn", "poly", "--left-coeffs", "20,-10,1",
     "--left-interval", "0,1", "--right-fn", "exp-exp", "--right-coeffs", "1",
     "--right-interval", "5,60"],
    # --seed belongs to holder-young, the one command that draws random numbers
    ["orlicz-norm", "--seed", "0"],
    ["degiorgi", "--mode", "formula", "--seed", "0"],
    ["glue", "--mode", "strict", "--left-fn", "poly", "--left-coeffs", "0,0,1",
     "--left-interval", "0,1", "--right-fn", "poly", "--right-coeffs", "0,0,1",
     "--right-interval", "3,4", "--seed", "0"],
    ["counterexample", "--kmin", "5", "--kmax", "6", "--seed", "0"],
    # a --detail-out that no --detail-k reads
    ["counterexample", "--kmin", "5", "--kmax", "6", "--detail-out", "unread.csv"],
])
def test_degiorgi_bad_input_exits_2_with_json(argv, capsys):
    # Named for its first inputs; it covers every subcommand's domain errors
    # and every kind of rejected command line.
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["command"] == (argv[0] if argv else None)
    assert payload["error"] in ("InvalidInput", "BadConfig")


@pytest.mark.parametrize("mode, message", [
    ("strict", "right piece: min g'' = nan is not > 0"),
    ("convex", "convex mode needs convex pieces"),
], ids=["strict", "convex"])
def test_glue_nan_probe_node_fails_the_curvature_demand(mode, message, capsys):
    # exp-exp's g'' underflows to 0 inside [5, 354.893] and is NaN (inf * 0)
    # only at the last probe node, where e^(2t) overflows
    code = run_cli(["glue", "--mode", mode, "--left-fn", "poly", "--left-coeffs", "20,-10,1",
                    "--left-interval", "0,1", "--right-fn", "exp-exp",
                    "--right-interval", "5,354.893"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": "glue", "error": "NotStrictlyConvexPiece",
                               "message": message}


def test_convex_glue_margin_skips_a_nan_probe(tmp_path):
    # on [5, 354.8] g'' is finite, but the margins of j = 2..5 reach past
    # t = 354.89, where it is NaN; j = 6 is the first whose margin stays short
    out = tmp_path / "r.json"
    code = run_cli(["glue", "--mode", "convex", "--left-fn", "poly", "--left-coeffs", "20,-10,1",
                    "--left-interval", "0,1", "--right-fn", "exp-exp",
                    "--right-interval", "5,354.8", "--out", str(out)])
    assert code == 0
    assert load_without_meta(out)["results"]["delta"] == 4 / 2**6


@pytest.mark.parametrize("argv", [
    ["holder-young", "--young=1,1e308,0"],  # the constant C overflows
    ["orlicz-norm", "--young=1e308,1,0", "--panels", "4"],  # N^p overflows
    ["degiorgi", "--mode", "sharpness", "--alpha", "151"],  # (2 alpha / e)^alpha overflows
])
def test_overflowing_bounds_exit_2_with_json(argv, capsys, recwarn):
    assert run_cli(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == argv[0] and payload["error"] == "NonFinite"
    # a warning would reach stderr ahead of the JSON outside pytest
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    # (C e)^(1/alpha) overflows a Python float power, in t_gamma and l_gamma
    ["degiorgi", "--mode", "formula", "--C", "1e300", "--alpha", "0.01", "--beta", "1",
     "--gamma", "2"],
    ["degiorgi", "--mode", "formula", "--C", "1", "--alpha", "0.001", "--beta", "2",
     "--gamma", "2", "--T", "1"],
    # (2 / log 2)^gamma overflows a float64 power
    ["degiorgi", "--mode", "formula", "--C", "0.36787944117144233", "--alpha", "0.001",
     "--beta", "3", "--gamma", "2000"],
])
def test_overflowing_thresholds_read_inf_and_exit_1(argv, tmp_path, capsys):
    # an overflowing power reads +inf on either path, so t_gamma_finite fails
    out = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = load_without_meta(out)
    assert report["results"]["t_gamma"] == np.inf
    if "l_gamma" in report["results"]:  # C = 1, alpha = 0.001, beta = 2, gamma = 2, T = 1
        # its exact value is finite, and its log form reads it (50-digit value)
        assert report["results"]["l_gamma"] == pytest.approx(1.65129729985533043067, rel=1e-13, abs=0)
    assert [(v["name"], v["passed"]) for v in report["verdicts"]] == [("t_gamma_finite", False)]


def test_orlicz_norm_that_overflows_exits_2_with_json(tmp_path, capsys):
    # L1 = 1e600: a norm past the largest float is a domain error, not
    # "norm": Infinity in the report
    data = tmp_path / "overflow.csv"
    data.write_text("t,weight,value\n0.1,1e300,1e300\n0.2,1e300,1e10\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["orlicz-norm", "--data", str(data)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["command"] == "orlicz-norm" and payload["error"] == "NonFinite"


def test_orlicz_norm_with_an_overflowing_mass_is_finite(tmp_path):
    # mass 2e300: max(L1, max|f|) (1 + mass) overflows, but the norm at
    # weight (1, 0, 0) is L1 = 2e10
    data, out = tmp_path / "big_mass.csv", tmp_path / "r.json"
    data.write_text("t,weight,value\n0.1,1e300,1e-290\n0.2,1e300,1e-290\n", encoding="utf-8")
    assert run_cli(["orlicz-norm", "--young", "1,0,0", "--data", str(data), "--out", str(out)]) == 0
    report = load_without_meta(out)
    assert abs(report["results"]["norm"] - 2e10) <= 1e-9 * 2e10
    assert all(v["passed"] for v in report["verdicts"])


def _csv_module_bytes(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    return buf.getvalue().encode("utf-8")


def _table_bytes(path, header, columns):
    _write_csv_table(str(path), header, [columns])
    return path.read_bytes()


_EDGE_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e-5, 0.1]


@pytest.mark.parametrize("header,columns", [
    (["k", "eps"], [[5, 6, 7], [0.03125, 0.015625, 0.0078125]]),  # ints, a list column
    (["x", "y"], [_EDGE_FLOATS, np.array(_EDGE_FLOATS[::-1])]),
    (["t", "h", "h1", "h2"], [np.array([]), np.array([]), [], []]),  # 0 rows
    (["t", "weight", "value"], [np.array([0.5]), np.array([1.0]), np.array([-2.0])]),
])
def test_table_writer_matches_csv_module(tmp_path, header, columns):
    assert (_table_bytes(tmp_path / "t.csv", header, columns)
            == _csv_module_bytes(header, columns))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n_rows=st.integers(0, 12), n_cols=st.integers(1, 4))
def test_table_writer_matches_csv_module_on_drawn_floats(tmp_path_factory, data, n_rows,
                                                         n_cols):
    columns = [np.array(data.draw(st.lists(st.floats(width=64), min_size=n_rows,
                                           max_size=n_rows)), dtype=np.float64)
               for _ in range(n_cols)]
    header = [f"c{i}" for i in range(n_cols)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    assert _table_bytes(path, header, columns) == _csv_module_bytes(header, columns)


_B = cli.TABLE_BLOCK


@pytest.mark.parametrize("n_rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_table_writer_matches_csv_module_at_block_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    header = ["i", "x", "edge", "k"]
    columns = [list(range(n_rows)),
               rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
               np.resize(np.array(_EDGE_FLOATS), n_rows),
               rng.integers(-2**62, 2**62, n_rows)]
    expected = _csv_module_bytes(header, columns)
    assert _table_bytes(tmp_path / "whole.csv", header, columns) == expected
    # the same rows given as uneven blocks, as a lazily evaluated table arrives
    cuts = sorted({0, min(3, n_rows), min(_B + 5, n_rows), n_rows})
    blocks = ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:]))
    _write_csv_table(str(tmp_path / "blocks.csv"), header, blocks)
    assert (tmp_path / "blocks.csv").read_bytes() == expected


def test_glue_h_csv_evaluated_per_block_keeps_its_bytes(tmp_path, monkeypatch):
    # h evaluated on 2B + 1 points one block at a time, against one evaluation
    # on all of them written by csv.writer: the radial glue's jet has the most
    # branches
    argv = ["glue", "--mode", "radial", "--eps", "0.0009765625", "--left-fn", "feps",
            "--left-interval", "0.015625,0.0625", "--right-fn", "log1p",
            "--right-interval", "1,4", "--n", "2", "--h-points", str(2 * _B + 1),
            "--out", str(tmp_path / "r.json"), "--h-csv"]
    assert run_cli(argv + [str(tmp_path / "blocks.csv")]) == 0
    monkeypatch.setattr(cli, "TABLE_BLOCK", 4 * _B)
    assert run_cli(argv + [str(tmp_path / "whole.csv")]) == 0
    blocks = (tmp_path / "blocks.csv").read_bytes()
    assert blocks.count(b"\r\n") == 2 * _B + 2
    assert blocks == (tmp_path / "whole.csv").read_bytes()
    result = glue(GlueProblem(cli.build_family("feps", Interval(0.015625, 0.0625), None,
                                               0.0009765625),
                              cli.build_family("log1p", Interval(1.0, 4.0), None, None),
                              "radial", n=2))
    ts = np.linspace(result.working.lo, result.working.hi, 2 * _B + 1)
    assert blocks == _csv_module_bytes(["t", "h", "h1", "h2"], [ts, *result.h.eval(ts)])


def test_a_table_write_that_fails_midway_leaves_no_file(tmp_path):
    def blocks():
        yield [np.arange(_B + 1.0)]
        raise RuntimeError("the second block failed")

    with pytest.raises(RuntimeError, match="second block"):
        _write_csv_table(str(tmp_path / "t.csv"), ["t"], blocks())
    assert list(tmp_path.iterdir()) == []


def test_table_writer_peak_memory_does_not_hold_the_table(tmp_path):
    # one block of formatted rows at a time: a 30,000 x 4 table written as one
    # string peaked at 8.9 MiB
    columns = [np.random.default_rng(0).random(30_000) for _ in range(4)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _write_csv_table(str(tmp_path / "t.csv"), ["t", "h", "h1", "h2"], [columns])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


# The bytes of each table as the csv-module writer produced them.
_PINNED_TABLES = {
    "glue": (
        ["glue", "--mode", "strict", "--left-coeffs", "0,0,1", "--left-interval", "0,1",
         "--right-coeffs", "0,0,1", "--right-interval", "3,4", "--h-points", "5",
         "--h-csv"],
        b"t,h,h1,h2\r\n-1.0,0.6956852485820728,-1.225,1.0\r\n0.5,0.25,1.0,2.0\r\n"
        b"2.0,3.827737281645587,4.0,3.520886524992318\r\n"
        b"3.5,12.25,7.0,2.0\r\n5.0,24.695685248582073,9.225,1.0\r\n",
    ),
    "counterexample": (
        ["counterexample", "--n", "2", "--kmin", "5", "--kmax", "6", "--table"],
        b"k,eps,ent_r1,ent_r3,osc,apx_integral\r\n"
        b"5,0.03125,2.8468288192405278,2.819495393176034,0.22564704811797964,"
        b"0.00011364098619577128\r\n"
        b"6,0.015625,2.8665284051473168,2.8441478491322782,0.23537311997936675,"
        b"0.00040160510227878877\r\n",
    ),
    "orlicz-norm": (
        ["orlicz-norm", "--panels", "2", "--order", "4", "--emit-data"],
        b"t,weight,value\r\n0.03471592210148686,0.08696371128436339,1.0\r\n"
        b"0.16500473910378594,0.1630362887156366,1.0\r\n"
        b"0.33499526089621406,0.1630362887156366,1.0\r\n"
        b"0.4652840778985131,0.08696371128436339,1.0\r\n"
        b"0.5347159221014869,0.08696371128436339,1.0\r\n"
        b"0.6650047391037859,0.1630362887156366,1.0\r\n"
        b"0.8349952608962141,0.1630362887156366,1.0\r\n"
        b"0.9652840778985131,0.08696371128436339,1.0\r\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TABLES))
def test_table_files_keep_their_bytes(tmp_path, name):
    argv, expected = _PINNED_TABLES[name]
    table = tmp_path / "table.csv"
    assert run_cli(argv + [str(table), "--out", str(tmp_path / "r.json")]) == 0
    assert table.read_bytes() == expected


def test_glue_quadratics_with_csv(tmp_path):
    out = tmp_path / "r.json"
    hcsv = tmp_path / "h.csv"
    code = run_cli([
        "glue", "--mode", "strict",
        "--left-fn", "poly", "--left-coeffs", "0,0,1", "--left-interval", "0,1",
        "--right-fn", "poly", "--right-coeffs", "0,0,1", "--right-interval", "3,4",
        "--h-csv", str(hcsv), "--h-points", "64", "--out", str(out),
    ])
    assert code == 0
    lines = hcsv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "t,h,h1,h2"
    assert len(lines) == 65
    report = load_without_meta(out)
    assert all(v["passed"] for v in report["verdicts"])


def test_glue_incompatible_diagnostics(capsys):
    code = run_cli([
        "glue", "--mode", "strict",
        "--left-fn", "poly", "--left-coeffs", "0,0,1", "--left-interval", "0,1",
        "--right-fn", "poly", "--right-coeffs=-10,0,1", "--right-interval", "3,4",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "IncompatiblePieces" in err and "<" in err  # chain values echoed


def test_glue_radial_example(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli([
        "glue", "--mode", "radial", "--eps", str(2.0**-10),
        "--left-fn", "feps", "--left-interval", f"{1 / 64},{1 / 16}",
        "--right-fn", "log1p", "--right-interval", "1,4",
        "--n", "2", "--out", str(out),
    ])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["det_sup"] <= report["results"]["det_cert"]


def test_counterexample_small_run(tmp_path):
    out = tmp_path / "r.json"
    table = tmp_path / "sweep.csv"
    code = run_cli(["counterexample", "--n", "2", "--kmin", "5", "--kmax", "9",
                    "--table", str(table), "--out", str(out)])
    report = load_without_meta(out)
    names = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert names["ent_plateau_r_1"]
    assert names["osc_strictly_increasing"]
    lines = table.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert code in (0, 1)


def test_counterexample_detail_mode(tmp_path):
    out = tmp_path / "r.json"
    detail = tmp_path / "density.csv"
    code = run_cli(["counterexample", "--n", "2", "--kmin", "8", "--kmax", "10",
                    "--detail-k", "9", "--detail-out", str(detail),
                    "--out", str(out)])
    assert code in (0, 1)
    lines = detail.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "t,weight,value"
    assert len(lines) > 100


def test_counterexample_builds_each_chart_once(tmp_path, monkeypatch):
    from luxglue import radialpsh

    calls = {"build_v_eps": 0, "chart_measure": 0}
    for name in calls:
        original = getattr(radialpsh, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(radialpsh, name, counted)
    code = run_cli(["counterexample", "--n", "2", "--kmin", "5", "--kmax", "9",
                    "--out", str(tmp_path / "r.json")])
    assert code in (0, 1)
    # one chart per row, on one chart measure: rows 2^-5 .. 2^-9 share its 40 panels
    assert calls == {"build_v_eps": 5, "chart_measure": 1}


def test_out_write_is_atomic_beside_a_stale_tmp_dir(tmp_path):
    # a fixed "<out>.tmp" name would collide with this directory
    (tmp_path / "report.json.tmp").mkdir()
    out = tmp_path / "report.json"
    code = run_cli(["degiorgi", "--mode", "formula", "--beta", "2", "--gamma", "1.5",
                    "--out", str(out)])
    assert code == 0
    assert load_without_meta(out)["command"] == "degiorgi"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path):
    from luxglue.cli import _write_atomic

    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(BadConfig, match="Is a directory"):
        _write_atomic(str(target), "text")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not any(target.iterdir())


def test_report_determinism_byte_identical(tmp_path):
    radial = ["glue", "--mode", "radial", "--eps", str(2.0**-10),
              "--left-fn", "feps", "--left-interval", f"{1 / 64},{1 / 16}",
              "--right-fn", "log1p", "--right-interval", "1,4", "--n", "2"]
    sharpness = ["degiorgi", "--mode", "sharpness", "--alpha", "2",
                 "--nodes", "256"]
    for name, argv in (("sharpness", sharpness), ("radial", radial)):
        blobs, side = [], []
        for i in range(2):
            out, hcsv = tmp_path / f"{name}{i}.json", tmp_path / f"{name}{i}.csv"
            extra = ["--h-csv", str(hcsv)] if name == "radial" else []
            assert run_cli(argv + extra + ["--out", str(out)]) == 0
            report = load_without_meta(out)
            report["results"].pop("h_csv", None)  # names the per-run path
            blobs.append(json.dumps(report, indent=2, sort_keys=True).encode())
            side.append(hcsv.read_bytes() if extra else b"")
        assert blobs[0] == blobs[1]
        assert side[0] == side[1]


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"young": "2,0,0", "coeffs": "0,1",
                               "interval": "0,1", "panels": 16, "order": 8}),
                   encoding="utf-8")
    out = tmp_path / "r.json"
    code = run_cli(["orlicz-norm", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["norm"] == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-8)
    # explicit flag beats the config value
    out2 = tmp_path / "r2.json"
    code = run_cli(["orlicz-norm", "--config", str(cfg), "--young", "1,0,0",
                    "--out", str(out2)])
    assert code == 0
    report2 = load_without_meta(out2)
    assert report2["results"]["norm"] == pytest.approx(0.5, rel=1e-8)


@pytest.mark.parametrize("argv,config", [
    (["counterexample"], {"n": "abc"}),
    (["glue", "--mode", "strict", "--left-interval", "0,1", "--right-interval", "3,4"],
     {"mode": "bogus"}),
    (["counterexample"], {"n": [2]}),
    (["counterexample"], {"n": None}),
    (["counterexample"], [2]),
    # a required option must be on the command line itself
    (["glue", "--mode", "strict", "--left-interval", "0,1"], {"right_interval": "3,4"}),
])
def test_config_value_must_pass_its_option_type(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(argv + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "BadConfig"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}), encoding="utf-8")
    code = run_cli(["orlicz-norm", "--config", str(cfg)])
    assert code == 2
    assert "BadConfig" in capsys.readouterr().err


def test_csv_format_output(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli(["degiorgi", "--mode", "formula", "--beta", "3",
                    "--gamma", "1.5", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "key,value"
    assert "results.t_gamma" in text


def test_csv_report_quotes_inputs_that_hold_commas(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["orlicz-norm", "--interval", "0,1", "--format", "csv",
                    "--out", str(out)]) == 0
    assert 'inputs.interval,"0,1"\r\n' in out.read_bytes().decode("utf-8")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "luxglue.cli", "degiorgi", "--mode", "formula",
         "--beta", "2", "--gamma", "1.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "degiorgi"


@pytest.mark.parametrize("left,right,n", [("5,10", "20,30", 3), ("50,100", "200,300", 2)])
def test_radial_det_certificate_holds_when_b1_exceeds_1(tmp_path, left, right, n):
    # e^(-n tau) <= b1^-n on the bridge band; a b1^-2n bound is too small here
    out = tmp_path / "r.json"
    code = run_cli(["glue", "--mode", "radial", "--left-fn", "poly", "--left-coeffs", "0,0,1",
                    "--left-interval", left, "--right-fn", "poly", "--right-coeffs", "0,0,1",
                    "--right-interval", right, "--n", str(n), "--out", str(out)])
    assert code == 0
    det = {v["name"]: v for v in load_without_meta(out)["verdicts"]}["det_le_certified"]
    assert det["passed"] and det["lhs"] <= det["rhs"]


@pytest.mark.parametrize("flag", ["--out", "--table", "--detail-out"])
def test_output_in_a_missing_directory_exits_2(tmp_path, capsys, flag):
    argv = ["counterexample", "--kmin", "5", "--kmax", "6", "--detail-k", "5",
            "--detail-out", str(tmp_path / "d.csv"), flag, str(tmp_path / "missing" / "f.csv")]
    assert run_cli(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BadConfig"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--out", "--table", "--detail-out"])
def test_output_naming_a_directory_exits_2(tmp_path, capsys, flag):
    taken = tmp_path / "taken"
    taken.mkdir()
    argv = ["counterexample", "--kmin", "5", "--kmax", "6", "--detail-k", "5",
            "--detail-out", str(tmp_path / "d.csv"), flag, str(taken)]
    assert run_cli(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BadConfig"
    assert not any(taken.iterdir())
    assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}"])
def test_config_file_that_is_not_json_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert run_cli(["counterexample", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BadConfig"


def test_module_entry_rejects_bad_input_with_json_only():
    # no runpy warning ahead of the payload: the package does not import cli
    proc = subprocess.run([sys.executable, "-m", "luxglue.cli", "counterexample", "--n", "abc"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    payload, end = json.JSONDecoder().raw_decode(proc.stderr)
    assert proc.stderr[end:].strip() == ""
    assert payload["command"] == "counterexample"


# Fuzz alphabet: every option draws from its own small set of good values,
# bounded so that a run stays cheap; at most one value per draw is junk.
# Float-valued options and number lists also draw non-finite, huge and
# negative-zero numbers; integer options stay bounded.
_JUNK = ["", "abc", "1,", ",", "1,x,0", "0,1,2,3", "-1", "0", "bogus"]
_EXTREME = ["nan", "inf", "-inf", "1e308", "-0.0"]
_PATH = ["{tmp}/f.out", "{tmp}/missing/f.out"]
_COMMON = {"--format": ["json", "csv"], "--out": _PATH}
_YOUNG = ["1,1,0", "2,0,0", "1,2,1", "0.5,0,0", "1,inf,0", "nan,1,0", "1e308,1,0", "1,1e308,0"]
_FNS = ["poly", "log1p", "feps", "exp-exp"]
_COEFFS = ["0,0,1", "1", "-1.5,2,0.5", "0,1", "0,nan,1", "1e308,0,1"]
_OPTIONS = {
    "orlicz-norm": {"--young": _YOUNG, "--data": ["{tmp}/f.out", "{tmp}/none.csv"],
                    "--builtin": _FNS, "--coeffs": _COEFFS, "--eps": ["0.01", "0.5", *_EXTREME],
                    "--interval": ["0,1", "0.001,0.25", "1,2", "0,inf", "-0.0,1e308"],
                    "--panels": ["1", "4"], "--order": ["2", "8"], "--emit-data": _PATH},
    "holder-young": {"--seed": ["0", "3"], "--sweep": ["0", "1", "3"], "--young": _YOUNG,
                     "--indicator-mass": ["0.01", "0.5", "2", *_EXTREME],
                     "--space-mass": ["1", "0.5", *_EXTREME]},
    "degiorgi": {"--mode": ["formula", "simulate", "sharpness"], "--C": ["1", "2", *_EXTREME],
                 "--alpha": ["1", "0.5", *_EXTREME], "--beta": ["2", "3", "1", *_EXTREME],
                 "--gamma": ["1.5", "2", "3", *_EXTREME], "--f0": ["1", "2", *_EXTREME],
                 "--T": ["2", "10", *_EXTREME], "--k": ["2", "0.5", *_EXTREME],
                 "--nodes": ["16", "32", "64"], "--t-max": ["1", "10", *_EXTREME]},
    "glue": {"--mode": ["strict", "convex", "radial"], "--left-fn": _FNS,
             "--left-coeffs": _COEFFS, "--left-interval": ["0,1", "0.015625,0.0625", "nan,1"],
             "--right-fn": _FNS, "--right-coeffs": _COEFFS,
             "--right-interval": ["3,4", "1,4", "0.5,2", "3,1e308"],
             "--eps": ["0.001", "0.5", *_EXTREME], "--n": ["2", "3"], "--h-csv": _PATH,
             "--h-points": ["8", "16"]},
    "counterexample": {"--n": ["2", "3"], "--kmin": ["5", "6"], "--kmax": ["6", "7"],
                       "--r": ["1", "1.5", *_EXTREME], "--table": _PATH,
                       "--detail-k": ["5", "9"], "--detail-out": _PATH},
}
# required options, and those whose defaults would make a run slow
_ALWAYS = {"holder-young": ["--sweep"], "degiorgi": ["--mode", "--nodes"],
           "counterexample": ["--kmin", "--kmax"], "orlicz-norm": ["--panels"],
           "glue": ["--mode", "--left-interval", "--right-interval", "--h-points"]}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_COMMON, **_OPTIONS[command]}
    always = _ALWAYS.get(command, [])
    names = always + draw(st.lists(st.sampled_from(sorted(set(options) - set(always))),
                                   unique=True, max_size=5))
    pairs = [[name, draw(st.sampled_from(options[name]))] for name in names]
    junk_at = draw(st.none() | st.integers(0, len(pairs) - 1))
    if junk_at is not None:
        pairs[junk_at][1] = draw(st.sampled_from(_JUNK))
    n_config = draw(st.integers(0, len(pairs)))
    return command, pairs[:n_config], pairs[n_config:]


def _json_value(text, as_number):
    """text, or the JSON number it spells when as_number is set."""
    if as_number:
        for kind in (int, float):
            with contextlib.suppress(ValueError):
                return kind(text)
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=_command_lines(), key_style=st.sampled_from(["-", "_"]),
       as_number=st.booleans())
def test_fuzzed_command_lines_exit_0_1_or_2_with_json(tmp_path_factory, drawn, key_style,
                                                      as_number):
    command, config, flags = drawn
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [command] + [f"{name}={value.format(tmp=tmp)}" for name, value in flags]
    if config:
        path = tmp / "cfg.json"
        path.write_text(json.dumps({name[2:].replace("-", key_style):
                                    _json_value(value.format(tmp=tmp), as_number)
                                    for name, value in config}), encoding="utf-8")
        argv += ["--config", str(path)]
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(tmp)  # --detail-k alone writes beside the working directory
    try:
        # recwarn is function-scoped, and Hypothesis reuses one fixture value
        # for every example, so each example records its own warnings
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1, 2)
    if code == 2:
        payload = json.loads(stderr.getvalue())
        assert payload["command"] == command and payload["error"]
