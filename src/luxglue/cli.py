"""Command-line surface.

Subcommands: orlicz-norm, holder-young, degiorgi, glue, counterexample.
Each run emits a report (JSON with stable key order, or flattened CSV) whose
verdict list determines the exit code: 0 iff every verdict passes.  Domain
errors exit with code 2 and a structured message on stderr; they never
masquerade as failing verdicts.  All randomness flows through one named,
seeded generator recorded in the report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from typing import Any, NoReturn

import numpy as np

from . import __version__
from .degiorgi import (
    IterationHypothesis,
    fit_constant,
    l_gamma,
    power_superlevel_fn,
    sharpness_sup,
    simulate_vanishing,
    t_gamma,
)
from .errors import BadConfig, FileFormat, LuxglueError, ZeroMass
from .gluing import GluePiece, GlueProblem, glue, verify_glue
from .numgrid import GridFn, Interval, SmoothFn, WeightedMeasure, gauss_measure
from .orlicz import (
    BLOCK_SIZE,
    INEQ_SLACK,
    holder_young_bound,
    holder_young_bounds,
    integral_bound_from_norm,
    luxemburg_norm,
)
from .radialpsh import (
    appendix_c_bounds,
    chart_density,
    CounterexampleParams,
    entropy_sweep,
    feps_smoothfn,
    fs_potential,
)
from .sampling import RNG_NAME, random_step_fn, random_young_params, rng_from_seed
from .youngfn import YoungParams


# ---------------------------------------------------------------------------
# builtin function families (portable text configs)


def _poly_fn(interval: Interval, coeffs: list[float]) -> SmoothFn:
    c = np.asarray(coeffs, dtype=float)
    c1 = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    c2 = np.polynomial.polynomial.polyder(c1) if c1.size > 1 else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return SmoothFn(interval, lambda t: (pv(t, c), pv(t, c1), pv(t, c2)), name="poly")


def _exp_exp_fn(interval: Interval) -> SmoothFn:
    def jet(t):
        e = np.exp(t)
        v = np.exp(-e)
        return v, -e * v, (e * e - e) * v

    return SmoothFn(interval, jet, name="exp-exp")


def build_family(name: str, interval: Interval, args: dict[str, Any]) -> SmoothFn:
    if name == "poly":
        coeffs = args.get("coeffs")
        if not coeffs:
            raise BadConfig("poly family needs coeffs")
        return _poly_fn(interval, coeffs)
    if name == "log1p":
        return dataclasses.replace(fs_potential(), domain=interval)
    if name == "feps":
        eps = args.get("eps")
        if eps is None:
            raise BadConfig("feps family needs eps")
        return feps_smoothfn(float(eps), lo=interval.lo, hi=interval.hi)
    if name == "exp-exp":
        return _exp_exp_fn(interval)
    raise BadConfig(f"unknown function family {name!r} "
                    "(registered: poly, log1p, feps, exp-exp)")


# ---------------------------------------------------------------------------
# report plumbing


def _verdict(name: str, passed: bool, lhs: float, rhs: float, tol: float) -> dict:
    return {"name": name, "passed": bool(passed), "lhs": float(lhs),
            "rhs": float(rhs), "tol": float(tol)}


def _report(command: str, inputs: dict, results: dict, verdicts: list[dict],
            t_start: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
        "meta": {
            "elapsed_s": time.monotonic() - t_start,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "rng": RNG_NAME,
            "version": __version__,
        },
    }


def _write_atomic(path: str, text: str) -> None:
    """Write text to a unique temp file beside path, fsync it, then rename it
    over path; the temp file is removed if any step fails."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):  # e.g. a missing directory, or path names one
            raise BadConfig(f"cannot write {path}: {exc}") from exc
        raise


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, repr(obj) if isinstance(obj, float) else str(obj)))


def emit_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:  # csv quotes the input strings that hold commas, such as "0,1"
        rows: list[tuple[str, str]] = [("key", "value")]
        _flatten("", report, rows)
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _write_csv_table(path: str, header: list[str], columns: list) -> None:
    """One numpy or list column of numbers per header name, written as
    csv.writer would: header row first, CRLF row ends, a float as its repr
    (the shortest text that reads back to the same bits), an int as its
    digits; no number and no header name here needs quoting."""
    rows = zip(*(map(repr, np.asarray(c).tolist()) for c in columns))
    _write_atomic(path, "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n")


def read_data_csv(path: str) -> GridFn:
    """Input format: header 't,weight,value', one node of three numbers per row."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "weight", "value"]:
                raise FileFormat(f"{path}: expected header 't,weight,value'")
            for row in filter(None, reader):
                if len(row) != 3:
                    raise FileFormat(f"{path}: line {reader.line_num} has {len(row)} "
                                     "fields, expected 3")
                rows.append([float(x) for x in row])
    except OSError as exc:
        raise FileFormat(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise FileFormat(f"{path}: line {reader.line_num}: {exc}") from exc
    except ValueError as exc:
        raise FileFormat(f"{path}: non-numeric row: {exc}") from exc
    if not rows:
        raise FileFormat(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    return GridFn(WeightedMeasure(arr[:, 0], arr[:, 1]), arr[:, 2])


def _floats(text: str, count: int | None = None) -> list[float]:
    """Comma-separated numbers, `count` of them when given."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise BadConfig(f"expected comma-separated numbers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise BadConfig(f"expected {count} comma-separated numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_orlicz_norm(args: argparse.Namespace, t0: float) -> dict:
    params = YoungParams(*_floats(args.young, 3))
    if args.data:
        f = read_data_csv(args.data)
        source = {"data": args.data}
    else:
        interval = Interval(*_floats(args.interval, 2))
        m = gauss_measure(interval, args.panels, args.order)
        fam_args: dict[str, Any] = {}
        if args.coeffs:
            fam_args["coeffs"] = _floats(args.coeffs)
        if args.eps is not None:
            fam_args["eps"] = args.eps
        fn = build_family(args.builtin, interval, fam_args)
        f = GridFn(m, fn.d0(m.nodes))
        source = {"builtin": args.builtin, "interval": args.interval,
                  "panels": args.panels, "order": args.order, **fam_args}
    res = luxemburg_norm(f, params)
    verdicts = [
        _verdict("normalization_objective_le_1", res.objective_at_norm <= 1 + INEQ_SLACK,
                 res.objective_at_norm, 1.0, INEQ_SLACK),
    ]
    lhs, rhs = integral_bound_from_norm(f, params, res.norm)
    verdicts.append(_verdict("integral_le_norm_powers", lhs <= rhs * (1 + INEQ_SLACK),
                             lhs, rhs, INEQ_SLACK))
    results = {
        "norm": res.norm,
        "objective_at_norm": res.objective_at_norm,
        "bracket": list(res.bracket),
        "integral_lhs": lhs,
        "integral_rhs": rhs,
        "mass": f.measure.mass,
    }
    if args.emit_data:
        _write_csv_table(args.emit_data, ["t", "weight", "value"],
                         [f.measure.nodes, f.measure.weights, f.values])
        results["data_file"] = args.emit_data
    inputs = {"young": args.young, "seed": args.seed, **source}
    return _report("orlicz-norm", inputs, results, verdicts, t0)


def cmd_holder_young(args: argparse.Namespace, t0: float) -> dict:
    rng = rng_from_seed(args.seed)
    verdicts: list[dict] = []
    results: dict[str, Any] = {}
    if args.sweep > 0:
        violations = 0
        max_ratio = 0.0
        for start in range(0, args.sweep, BLOCK_SIZE):
            block = [(random_step_fn(rng), random_young_params(rng))
                     for _ in range(min(BLOCK_SIZE, args.sweep - start))]
            for lhs, rhs, _ in holder_young_bounds(*zip(*block)):
                ratio = lhs / rhs if rhs > 0 else 0.0
                max_ratio = max(max_ratio, ratio)
                if lhs > rhs * (1 + INEQ_SLACK):
                    violations += 1
        results = {"sweep": args.sweep, "violations": violations,
                   "max_ratio": max_ratio, "min_slack": 1.0 - max_ratio}
        verdicts.append(_verdict("sweep_zero_violations", violations == 0,
                                 violations, 0, 0))
    else:
        if args.space_mass <= 0:
            raise ZeroMass("the ambient measure must have positive mass")
        params = YoungParams(*_floats(args.young, 3))
        frac = args.indicator_mass / args.space_mass
        if not 0 < frac < 1:
            raise BadConfig("indicator mass must lie strictly inside the space mass")
        nodes = np.array([0.25, 0.75])
        weights = np.array([args.indicator_mass,
                            args.space_mass - args.indicator_mass])
        f = GridFn(WeightedMeasure(nodes, weights), np.array([1.0, 0.0]))
        lhs, rhs, C = holder_young_bound(f, params)
        results = {"lhs": lhs, "rhs": rhs, "C": C,
                   "indicator_mass": args.indicator_mass,
                   "space_mass": args.space_mass}
        verdicts.append(_verdict("bound_holds", lhs <= rhs * (1 + INEQ_SLACK),
                                 lhs, rhs, INEQ_SLACK))
    inputs = {"seed": args.seed, "sweep": args.sweep, "young": args.young,
              "indicator_mass": args.indicator_mass, "space_mass": args.space_mass}
    return _report("holder-young", inputs, results, verdicts, t0)


def cmd_degiorgi(args: argparse.Namespace, t0: float) -> dict:
    verdicts: list[dict] = []
    results: dict[str, Any] = {}
    if args.mode == "formula":
        hyp = IterationHypothesis(args.C, args.alpha, args.beta, 0.0, args.f0)
        tg = t_gamma(hyp, args.gamma)
        results = {"t_gamma": tg.value, "at_zero_level": tg.at_zero_level}
        if args.T is not None:
            results["l_gamma"] = l_gamma(args.C, args.alpha, args.beta,
                                         args.gamma, args.T)
        verdicts.append(_verdict("t_gamma_finite", np.isfinite(tg.value),
                                 tg.value, np.inf, 0))
    elif args.mode == "simulate":
        f = power_superlevel_fn(args.k, n_nodes=args.nodes)
        C = fit_constant(f, args.alpha, args.beta)
        hyp = IterationHypothesis(C, args.alpha, args.beta, f.t0, f.f_t0)
        extensions = 0
        for _ in range(8):  # extend the grid until it covers the threshold
            T = t_gamma(hyp, args.gamma).value
            if f.grid[-1] >= f.t0 + T:
                break
            f = power_superlevel_fn(args.k, n_nodes=args.nodes,
                                    t_end=(f.t0 + T) * 1.05)
            C = fit_constant(f, args.alpha, args.beta)
            hyp = IterationHypothesis(C, args.alpha, args.beta, f.t0, f.f_t0)
            extensions += 1
        rep = simulate_vanishing(f, hyp, args.gamma)
        results = {"fitted_C": C, "status": rep.status, "threshold": rep.threshold,
                   "vanish_node": rep.node, "value_at_node": rep.value_at_node,
                   "chain_depth": rep.chain_depth, "pairs_checked": rep.pairs_checked,
                   "grid_extensions": extensions}
        verdicts.append(_verdict("vanishing_verified",
                                 rep.status == "verified" and rep.value_at_node == 0.0,
                                 rep.value_at_node if rep.value_at_node is not None
                                 else np.nan, 0.0, 0))
        verdicts.append(_verdict("decay_chain", rep.chain_ok, rep.chain_depth, 0, 0))
    else:  # sharpness; parsing admits only the three choices
        if args.nodes < 16:
            raise BadConfig(f"sharpness needs --nodes >= 16 (one 16-point panel), "
                            f"got {args.nodes}")
        grid = gauss_measure(Interval(0.0, args.t_max), panels=args.nodes // 16, order=16)
        sup = sharpness_sup(args.alpha, grid)
        bound = (2 * args.alpha / np.e) ** args.alpha
        results = {"sup": sup, "bound": bound, "ratio": sup / bound}
        verdicts.append(_verdict("sup_le_bound", sup <= bound * (1 + INEQ_SLACK),
                                 sup, bound, INEQ_SLACK))
    inputs = {k: getattr(args, k) for k in
              ("mode", "C", "alpha", "beta", "gamma", "f0", "T", "k", "nodes",
               "t_max", "seed")}
    return _report("degiorgi", inputs, results, verdicts, t0)


_MODE_MAP = {"strict": "strictly_convex", "convex": "convex", "radial": "radial_psh"}


def cmd_glue(args: argparse.Namespace, t0: float) -> dict:
    mode = _MODE_MAP[args.mode]  # a choice, checked by parsing
    if args.h_csv and args.h_points < 0:
        raise BadConfig(f"--h-points must be >= 0, got {args.h_points}")
    li = Interval(*_floats(args.left_interval, 2))
    ri = Interval(*_floats(args.right_interval, 2))
    largs: dict[str, Any] = {}
    rargs: dict[str, Any] = {}
    if args.left_coeffs:
        largs["coeffs"] = _floats(args.left_coeffs)
    if args.right_coeffs:
        rargs["coeffs"] = _floats(args.right_coeffs)
    if args.eps is not None:
        largs["eps"] = args.eps
        rargs["eps"] = args.eps
    left = GluePiece(build_family(args.left_fn, li, largs))
    right = GluePiece(build_family(args.right_fn, ri, rargs))
    problem = GlueProblem(left, right, mode, n=args.n)
    result = glue(problem)
    check = verify_glue(result)
    probe_l = np.linspace(li.lo, li.hi, 257)
    probe_r = np.linspace(ri.lo, ri.hi, 257)
    match_l = float(np.max(np.abs(result.h.d0(probe_l) - left.fn.d0(probe_l))))
    match_r = float(np.max(np.abs(result.h.d0(probe_r) - right.fn.d0(probe_r))))
    verdicts = [
        _verdict("restriction_match_left", match_l <= 1e-9, match_l, 1e-9, 0),
        _verdict("restriction_match_right", match_r <= 1e-9, match_r, 1e-9, 0),
    ]
    if mode == "strictly_convex":
        verdicts.append(_verdict("inf_h2_ge_certified",
                                 check.inf_h2 >= result.cert_inf_h2 * (1 - 1e-9) - 1e-12,
                                 check.inf_h2, result.cert_inf_h2, 1e-9))
    if mode in ("strictly_convex", "convex"):
        verdicts.append(_verdict("sup_h2_le_certified",
                                 check.sup_h2 <= result.cert_sup_h2 * (1 + 1e-9),
                                 check.sup_h2, result.cert_sup_h2, 1e-9))
    if mode == "radial_psh":
        verdicts.append(_verdict("det_le_certified",
                                 check.det_sup <= result.det_cert * (1 + 1e-9),
                                 check.det_sup, result.det_cert, 1e-9))
    results = {
        "c": result.c, "delta": result.delta, "eps": result.eps,
        "inf_h2": check.inf_h2, "sup_h2": check.sup_h2,
        "cert_inf_h2": result.cert_inf_h2, "cert_sup_h2": result.cert_sup_h2,
        "compat": {"lhs": result.compat.lhs, "mid": result.compat.mid,
                   "rhs": result.compat.rhs},
        "det_sup": check.det_sup, "det_cert": result.det_cert,
    }
    if args.h_csv:
        ts = np.linspace(result.working.lo, result.working.hi, args.h_points)
        _write_csv_table(args.h_csv, ["t", "h", "h1", "h2"], [ts, *result.h.eval(ts)])
        results["h_csv"] = args.h_csv
    inputs = {k: getattr(args, k) for k in
              ("mode", "left_fn", "left_interval", "left_coeffs", "right_fn",
               "right_interval", "right_coeffs", "eps", "n", "seed")}
    return _report("glue", inputs, results, verdicts, t0)


def cmd_counterexample(args: argparse.Namespace, t0: float) -> dict:
    n = args.n
    if args.kmax <= args.kmin:
        raise BadConfig(f"the verdicts compare rows: need --kmax > --kmin, "
                        f"got {args.kmin}..{args.kmax}")
    ks = list(range(args.kmin, args.kmax + 1))
    eps_list = [2.0**-k for k in ks]
    r_low = n - 1 if args.r is None else args.r
    rows = entropy_sweep(n, (r_low, n + 1), eps_list)
    table = [
        {"k": k, "eps": row.eps, "ent_low": row.ent[0], "ent_high": row.ent[1],
         "osc": row.osc,
         "apx_integral": appendix_c_bounds(CounterexampleParams(row.eps, n),
                                           t0=1.0 / 8.0).integral}
        for k, row in zip(ks, rows)
    ]
    ent_low = np.array([row["ent_low"] for row in table])
    ent_high = np.array([row["ent_high"] for row in table])
    osc = np.array([row["osc"] for row in table])
    apx_int = np.array([row["apx_integral"] for row in table])
    verdicts = [
        _verdict(f"ent_plateau_r_{r_low:g}", float(ent_low.max() / ent_low.min()) <= 10.0,
                 float(ent_low.max() / ent_low.min()), 10.0, 0),
        _verdict(f"ent_increasing_r_{n + 1}", bool(np.all(np.diff(ent_high) > 0)),
                 float(np.min(np.diff(ent_high))), 0.0, 0),
        _verdict("osc_strictly_increasing", bool(np.all(np.diff(osc) > 0)),
                 float(np.min(np.diff(osc))), 0.0, 0),
        _verdict("appendix_integral_uniform",
                 bool(np.isfinite(apx_int).all())
                 and float(apx_int.max() / apx_int.min()) <= 10.0,
                 float(apx_int.max() / apx_int.min()), 10.0, 0),
    ]
    results = {
        "n": n, "r_low": r_low, "r_high": n + 1,
        "ent_low_ratio": float(ent_low.max() / ent_low.min()),
        "ent_high_growth": float(ent_high[-1] / ent_high[0]),
        "osc_growth": float(osc[-1] / osc[0]),
        "apx_integral_ratio": float(apx_int.max() / apx_int.min()),
        "table": table,
    }
    if args.table:
        _write_csv_table(
            args.table,
            ["k", "eps", f"ent_r{r_low:g}", f"ent_r{n + 1}", "osc", "apx_integral"],
            [ks, eps_list, ent_low, ent_high, osc, apx_int],
        )
        results["table_file"] = args.table
    if args.detail_k is not None:
        dens = chart_density(n, 2.0**-args.detail_k)
        path = args.detail_out or f"density_k{args.detail_k}.csv"
        _write_csv_table(path, ["t", "weight", "value"],
                         [dens.measure.nodes, dens.measure.weights, dens.values])
        results["detail_file"] = path
    inputs = {"n": n, "kmin": args.kmin, "kmax": args.kmax, "r": args.r,
              "seed": args.seed}
    return _report("counterexample", inputs, results, verdicts, t0)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Rejects a command line by raising BadConfig, so that main reports it
    as JSON with exit 2; option names must be spelled in full.  Subparsers
    are of this class too."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise BadConfig(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="luxglue",
        description="Verification suites for gauge-norm inequalities, "
                    "iteration thresholds, smooth gluing and the chart sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="JSON file of option defaults; explicit flags win")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="report path (atomic write)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("orlicz-norm", help="gauge norm of a density")
    common(p)
    p.add_argument("--young", default="1,1,0", help="p,q,r")
    p.add_argument("--data", default=None, help="CSV file t,weight,value")
    p.add_argument("--builtin", default="poly")
    p.add_argument("--coeffs", default="1", help="poly coefficients c0,c1,...")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--interval", default="0,1")
    p.add_argument("--panels", type=int, default=8)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--emit-data", default=None, help="write the sampled data CSV")
    p.set_defaults(handler=cmd_orlicz_norm)

    p = sub.add_parser("holder-young", help="product-integral bound checks")
    common(p)
    p.add_argument("--sweep", type=int, default=0, help="random instances (0 = single)")
    p.add_argument("--young", default="1,1,0")
    p.add_argument("--indicator-mass", type=float, default=0.01)
    p.add_argument("--space-mass", type=float, default=1.0)
    p.set_defaults(handler=cmd_holder_young)

    p = sub.add_parser("degiorgi", help="iteration threshold suites")
    common(p)
    p.add_argument("--mode", choices=["formula", "simulate", "sharpness"],
                   required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.5)
    p.add_argument("--f0", type=float, default=1.0)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--k", type=float, default=2.0, help="profile power (simulate)")
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--t-max", type=float, default=10.0)
    p.set_defaults(handler=cmd_degiorgi)

    p = sub.add_parser("glue", help="construct a certified glue")
    common(p)
    p.add_argument("--mode", choices=sorted(_MODE_MAP), required=True)
    p.add_argument("--left-fn", default="poly")
    p.add_argument("--left-coeffs", default=None)
    p.add_argument("--left-interval", required=True)
    p.add_argument("--right-fn", default="poly")
    p.add_argument("--right-coeffs", default=None)
    p.add_argument("--right-interval", required=True)
    p.add_argument("--eps", type=float, default=None, help="feps family parameter")
    p.add_argument("--n", type=int, default=2, help="complex dimension (radial)")
    p.add_argument("--h-csv", default=None, help="sampled t,h,h1,h2 output")
    p.add_argument("--h-points", type=int, default=512)
    p.set_defaults(handler=cmd_glue)

    p = sub.add_parser("counterexample", help="bounded-entropy sweep")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--kmin", type=int, default=5)
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--r", type=float, default=None,
                   help="low entropy exponent (default n-1)")
    p.add_argument("--table", default=None, help="sweep table CSV path")
    p.add_argument("--detail-k", type=int, default=None,
                   help="emit per-annulus density for eps = 2^-k")
    p.add_argument("--detail-out", default=None)
    p.set_defaults(handler=cmd_counterexample)
    return parser


def _config_argv(path: str) -> list[str]:
    """The JSON object in path as '--key=value' tokens; '_' and '-' in a key
    both spell the option's '-'."""
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON
        raise BadConfig(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise BadConfig(f"{path}: expected a JSON object")
    for key, value in loaded.items():
        if not isinstance(value, (str, int, float)):
            raise BadConfig(f"{path}: option {key!r} needs a string or a number, "
                            f"got {value!r}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in loaded.items()]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # its options go first: argparse checks them, a flag wins
            args = parser.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
        with np.errstate(all="ignore"):  # numpy warnings would precede the JSON
            report = args.handler(args, time.monotonic())
        emit_report(report, args.format, args.out)
    except LuxglueError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "command": argv[0] if argv else None}
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 2
    return 0 if all(v["passed"] for v in report["verdicts"]) else 1


if __name__ == "__main__":
    sys.exit(main())
