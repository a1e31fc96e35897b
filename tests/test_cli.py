import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue.cli import _write_csv_table, main, read_data_csv
from luxglue.errors import BadConfig, FileFormat


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


def test_holder_young_sweep_counts_violations(tmp_path, monkeypatch):
    from luxglue import orlicz

    monkeypatch.setattr(orlicz, "holder_young_constant", lambda params: 1e-12)
    out = tmp_path / "r.json"
    code = run_cli(["holder-young", "--sweep", "300", "--seed", "0", "--out", str(out)])
    assert code == 1  # a failed verdict with its report, not a domain error
    report = load_without_meta(out)
    assert report["results"]["violations"] == report["results"]["sweep"] == 300
    assert report["verdicts"][0]["name"] == "sweep_zero_violations"
    assert not report["verdicts"][0]["passed"]


# Frozen from the one-instance-at-a-time solver that the batched one replaced.
def test_batched_reports_keep_the_scalar_solver_bits(tmp_path):
    out = tmp_path / "hy.json"
    assert run_cli(["holder-young", "--sweep", "1000", "--seed", "0", "--out", str(out)]) == 0
    assert repr(load_without_meta(out)["results"]["max_ratio"]) == "0.4004818954835567"
    out = tmp_path / "on.json"
    assert run_cli(["orlicz-norm", "--builtin", "feps", "--eps", "0.01", "--interval",
                    "0.001,0.25", "--panels", "64", "--order", "16", "--out", str(out)]) == 0
    res = load_without_meta(out)["results"]
    assert repr(res["norm"]) == "0.06798720009595094"
    assert [repr(b) for b in res["bracket"]] == ["0.06798720009159646", "0.06798720009595094"]
    assert repr(res["objective_at_norm"]) == "0.9999999999922773"


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


def test_degiorgi_sharpness(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["degiorgi", "--mode", "sharpness", "--alpha", "1",
                    "--nodes", "512", "--out", str(out)])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["sup"] <= 2.0 / np.e * (1 + 1e-8)


def test_degiorgi_simulate(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["degiorgi", "--mode", "simulate", "--k", "2", "--alpha", "1",
                    "--beta", "2", "--gamma", "1.5", "--out", str(out)])
    assert code == 0
    report = load_without_meta(out)
    assert report["results"]["value_at_node"] == 0.0


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


@pytest.mark.parametrize("argv", [
    ["holder-young", "--young=1,1e308,0"],  # the constant C overflows
    ["orlicz-norm", "--young=1e308,1,0", "--panels", "4"],  # N^p overflows
])
def test_overflowing_bounds_exit_2_with_json(argv, capsys, recwarn):
    assert run_cli(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["command"] == argv[0] and payload["error"] == "NonFinite"
    # a warning would reach stderr ahead of the JSON outside pytest
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _csv_module_bytes(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    return buf.getvalue().encode("utf-8")


def _table_bytes(path, header, columns):
    _write_csv_table(str(path), header, columns)
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


# The bytes of each table as the csv-module writer produced them.
_PINNED_TABLES = {
    "glue": (
        ["glue", "--mode", "strict", "--left-coeffs", "0,0,1", "--left-interval", "0,1",
         "--right-coeffs", "0,0,1", "--right-interval", "3,4", "--h-points", "5",
         "--h-csv"],
        b"t,h,h1,h2\r\n-1.0,0.6956852485820728,-1.225,1.0\r\n0.5,0.25,1.0,2.0\r\n"
        b"2.0,3.8277372816455872,4.000000000000001,3.520886524992318\r\n"
        b"3.5,12.25,7.0,2.0\r\n5.0,24.695685248582073,9.225,1.0\r\n",
    ),
    "counterexample": (
        ["counterexample", "--n", "2", "--kmin", "5", "--kmax", "6", "--table"],
        b"k,eps,ent_r1,ent_r3,osc,apx_integral\r\n"
        b"5,0.03125,2.84682881930236,2.8194953931981264,0.22564704811797964,"
        b"0.00011364098619577128\r\n"
        b"6,0.015625,2.86652840527201,2.8441478491832894,0.23537311997936675,"
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
    assert calls == {"build_v_eps": 5, "chart_measure": 5}  # one per row


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
                 "--nodes", "256", "--seed", "7"]
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
_COMMON = {"--format": ["json", "csv"], "--out": _PATH, "--seed": ["0", "3"]}
_YOUNG = ["1,1,0", "2,0,0", "1,2,1", "0.5,0,0", "1,inf,0", "nan,1,0", "1e308,1,0", "1,1e308,0"]
_FNS = ["poly", "log1p", "feps", "exp-exp"]
_COEFFS = ["0,0,1", "1", "-1.5,2,0.5", "0,1", "0,nan,1", "1e308,0,1"]
_OPTIONS = {
    "orlicz-norm": {"--young": _YOUNG, "--data": ["{tmp}/f.out", "{tmp}/none.csv"],
                    "--builtin": _FNS, "--coeffs": _COEFFS, "--eps": ["0.01", "0.5", *_EXTREME],
                    "--interval": ["0,1", "0.001,0.25", "1,2", "0,inf", "-0.0,1e308"],
                    "--panels": ["1", "4"], "--order": ["2", "8"], "--emit-data": _PATH},
    "holder-young": {"--sweep": ["0", "1", "3"], "--young": _YOUNG,
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
