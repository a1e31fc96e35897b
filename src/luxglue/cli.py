"""Command-line surface.

Subcommands: orlicz-norm, holder-young, degiorgi, glue, counterexample.
Each run emits a report (JSON with stable key order, or flattened CSV) whose
verdict list determines the exit code: 0 iff every verdict passes.  Domain
errors exit with code 2 and a structured message on stderr; they never
masquerade as failing verdicts.  holder-young alone draws random instances,
from one named generator seeded by its --seed, and its report records both.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import __version__
from .degiorgi import IterationHypothesis, l_gamma, sharpness_sup, simulate_power_profile, t_gamma
from .errors import BadConfig, FileFormat, LuxglueError, ZeroMass
from .gluing import MODES, GlueProblem, glue, verify_glue
from .numgrid import GridFn, Interval, SmoothFn, Verdict, WeightedMeasure, gauss_measure
from .orlicz import (
    BLOCK_SIZE,
    holder_young_bounds,
    holder_young_constant,
    integral_bound_from_norm,
    luxemburg_norm,
    sweep_verdict,
)
from .radialpsh import chart_density, entropy_sweep, feps_smoothfn, fs_potential, sweep_verdicts
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


def build_family(name: str, interval: Interval, coeffs: list[float] | None,
                 eps: float | None) -> SmoothFn:
    if name == "poly":
        if not coeffs:
            raise BadConfig("poly family needs coeffs")
        return _poly_fn(interval, coeffs)
    if name == "log1p":
        return dataclasses.replace(fs_potential(), interval=interval)
    if name == "feps":
        if eps is None:
            raise BadConfig("feps family needs eps")
        return feps_smoothfn(float(eps), lo=interval.lo, hi=interval.hi)
    if name == "exp-exp":
        return _exp_exp_fn(interval)
    raise BadConfig(f"unknown function family {name!r} "
                    "(registered: poly, log1p, feps, exp-exp)")


# ---------------------------------------------------------------------------
# report plumbing


@functools.cache
def _numpy_build() -> dict:
    """numpy's version and the SIMD target of its float64 exp, log, log1p and
    power kernels, whose last bits the reports carry; numpy < 2.0 cannot tell
    the targets, so there the version alone."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return {"version": np.__version__}
    info = opt_func_info(func_name="^(exp|log|log1p|power)$", signature="float64")
    kernels = {name: target["current"] for name, sigs in sorted(info.items())
               for target in sigs.values()}
    return {"version": np.__version__, "kernels": kernels}


def _write_atomic(path: str, chunks: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks in order, to a unique temp
    file beside path, fsync it, then rename it over path.  A report is one
    chunk; a table streams its rows one block per chunk (_write_csv_table),
    and the file's bytes are the chunks joined.  The temp file is removed if
    any step fails, a chunk iterable that raises included, so a failed write
    leaves no partial file and path as it was."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
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


# Rows of a table formatted per write, and points of h evaluated per block
# by glue --h-csv: an export's memory then stays flat in its row count.
TABLE_BLOCK = 8192


def _write_csv_table(path: str, header: list[str], blocks: Iterable[Sequence]) -> None:
    """Write a table as csv.writer would: header row first, CRLF row ends, a
    float as its repr (the shortest text that reads back to the same bits),
    an int as its digits; no number and no header name here needs quoting.

    blocks holds the rows in order, as runs of rows, each run one numpy or
    list column of numbers per header name; callers with whole columns pass
    them as one run.  Rows are formatted and written TABLE_BLOCK at a time,
    so memory stays flat in the row count, and the bytes are those of the
    whole table formatted at once.  glue --h-csv passes h evaluated one block
    of points at a time.  The write is _write_atomic's: a failed one leaves
    no partial file.
    """
    def chunks() -> Iterator[str]:
        yield ",".join(header) + "\r\n"
        for block in blocks:
            for start in range(0, len(block[0]), TABLE_BLOCK):
                rows = zip(*(map(repr, np.asarray(c[start:start + TABLE_BLOCK]).tolist())
                             for c in block))
                yield "\r\n".join(map(",".join, rows))
                yield "\r\n"  # apart, so that ending the block copies none of it

    _write_atomic(path, chunks())


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
                values = [float(x) for x in row]
                if not all(map(math.isfinite, values)):
                    raise FileFormat(f"{path}: line {reader.line_num} holds a non-finite "
                                     "number")
                rows.append(values)
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
# subcommand handlers: each returns its report's inputs, results and verdicts

Outcome = tuple[dict, dict, list[Verdict]]


def _check_read(flag: str, value: object, family: str, families: tuple[str, ...]) -> None:
    """Only the named family reads the flag; a value that nothing reads is an error."""
    if value is not None and family not in families:
        raise BadConfig(f"{flag} {value} is read only by the {family} family, and no "
                        "function here is one")


def cmd_orlicz_norm(args: argparse.Namespace) -> Outcome:
    families = () if args.data else (args.builtin,)
    _check_read("--eps", args.eps, "feps", families)
    _check_read("--coeffs", args.coeffs, "poly", families)
    params = YoungParams(*_floats(args.young, 3))
    if args.data:
        f = read_data_csv(args.data)
        source = {"data": args.data}
    else:
        interval = Interval(*_floats(args.interval, 2))
        m = gauss_measure(interval, args.panels, args.order)
        coeffs = None
        if args.builtin == "poly":  # the constant 1 unless --coeffs says otherwise
            coeffs = _floats("1" if args.coeffs is None else args.coeffs)
        fn = build_family(args.builtin, interval, coeffs, args.eps)
        f = GridFn(m, fn.d0(m.nodes))
        source = {"builtin": args.builtin, "interval": args.interval,
                  "panels": args.panels, "order": args.order}
        if coeffs:
            source["coeffs"] = coeffs
        if args.eps is not None:
            source["eps"] = args.eps
    res = luxemburg_norm(f, params)
    bound = integral_bound_from_norm(f, params, res.norm)
    results = {
        "norm": res.norm,
        "objective_at_norm": res.objective_at_norm,
        "bracket": list(res.bracket),
        "objective_evals": res.evals,
        "integral_lhs": bound.lhs,
        "integral_rhs": bound.rhs,
        "mass": f.measure.mass,
    }
    if args.emit_data:
        _write_csv_table(args.emit_data, ["t", "weight", "value"],
                         [[f.measure.nodes, f.measure.weights, f.values]])
        results["data_file"] = args.emit_data
    inputs = {"young": args.young, **source}
    return inputs, results, [res.verdict, bound]


def cmd_holder_young(args: argparse.Namespace) -> Outcome:
    rng = rng_from_seed(args.seed)
    if args.sweep < 0:
        raise BadConfig(f"--sweep must be >= 0, got {args.sweep}")
    if args.sweep > 0:
        bounds = []
        for start in range(0, args.sweep, BLOCK_SIZE):
            block = [(random_step_fn(rng), random_young_params(rng))
                     for _ in range(min(BLOCK_SIZE, args.sweep - start))]
            bounds += holder_young_bounds(*zip(*block))
        max_ratio = max([0.0] + [b.lhs / b.rhs if b.rhs > 0 else 0.0 for b in bounds])
        verdict = sweep_verdict(bounds)
        results = {"sweep": args.sweep, "violations": int(verdict.lhs),
                   "max_ratio": max_ratio, "min_slack": 1.0 - max_ratio}
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
        (verdict,) = holder_young_bounds([f], [params])
        results = {"lhs": verdict.lhs, "rhs": verdict.rhs, "C": holder_young_constant(params),
                   "indicator_mass": args.indicator_mass,
                   "space_mass": args.space_mass}
    inputs = {"seed": args.seed, "sweep": args.sweep, "young": args.young,
              "indicator_mass": args.indicator_mass, "space_mass": args.space_mass}
    return inputs, results, [verdict]


def cmd_degiorgi(args: argparse.Namespace) -> Outcome:
    if args.mode == "formula":
        hyp = IterationHypothesis(args.C, args.alpha, args.beta)
        tg = t_gamma(hyp, args.f0, args.gamma)
        results = {"t_gamma": tg.value, "at_zero_level": tg.at_zero_level}
        if args.T is not None:
            results["l_gamma"] = l_gamma(hyp, args.gamma, args.T)
        verdicts = [tg.verdict]
    elif args.mode == "simulate":
        rep, C, extensions = simulate_power_profile(args.k, args.alpha, args.beta, args.gamma,
                                                    n_nodes=args.nodes)
        results = {"fitted_C": C, "status": rep.status, "threshold": rep.threshold,
                   "vanish_node": rep.node, "value_at_node": rep.value_at_node,
                   "chain_depth": rep.chain_depth, "pairs_checked": rep.pairs_checked,
                   "grid_extensions": extensions}
        verdicts = list(rep.verdicts)
    else:  # sharpness; parsing admits only the three choices
        if args.nodes < 16:
            raise BadConfig(f"sharpness needs --nodes >= 16 (one 16-point panel), "
                            f"got {args.nodes}")
        grid = gauss_measure(Interval(0.0, args.t_max), panels=args.nodes // 16, order=16)
        verdict = sharpness_sup(args.alpha, grid)
        results = {"sup": verdict.lhs, "bound": verdict.rhs, "ratio": verdict.lhs / verdict.rhs}
        verdicts = [verdict]
    inputs = {k: getattr(args, k) for k in
              ("mode", "C", "alpha", "beta", "gamma", "f0", "T", "k", "nodes",
               "t_max")}
    return inputs, results, verdicts


def cmd_glue(args: argparse.Namespace) -> Outcome:
    if args.h_csv and args.h_points < 0:
        raise BadConfig(f"--h-points must be >= 0, got {args.h_points}")
    li = Interval(*_floats(args.left_interval, 2))
    ri = Interval(*_floats(args.right_interval, 2))
    lc = _floats(args.left_coeffs) if args.left_coeffs else None
    rc = _floats(args.right_coeffs) if args.right_coeffs else None
    _check_read("--eps", args.eps, "feps", (args.left_fn, args.right_fn))
    _check_read("--left-coeffs", args.left_coeffs, "poly", (args.left_fn,))
    _check_read("--right-coeffs", args.right_coeffs, "poly", (args.right_fn,))
    left = build_family(args.left_fn, li, lc, args.eps)
    right = build_family(args.right_fn, ri, rc, args.eps)
    result = glue(GlueProblem(left, right, args.mode, n=args.n))
    check = verify_glue(result)
    results = {
        "c": result.c, "delta": result.delta, "eps": result.eps,
        "inf_h2": check.inf_h2, "sup_h2": check.sup_h2,
        "cert_sup_h2": result.cert_sup_h2,
        "compat": {"lhs": result.compat.lhs, "mid": result.compat.mid,
                   "rhs": result.compat.rhs},
        "det_sup": check.det_sup, "det_cert": result.det_cert,
    }
    if args.h_csv:
        ts = np.linspace(result.working.lo, result.working.hi, args.h_points)
        _write_csv_table(args.h_csv, ["t", "h", "h1", "h2"],
                         ([t, *result.h.eval(t)]
                          for t in np.split(ts, range(TABLE_BLOCK, ts.size, TABLE_BLOCK))))
        results["h_csv"] = args.h_csv
    inputs = {k: getattr(args, k) for k in
              ("mode", "left_fn", "left_interval", "left_coeffs", "right_fn",
               "right_interval", "right_coeffs", "eps", "n")}
    return inputs, results, list(check.verdicts)


def cmd_counterexample(args: argparse.Namespace) -> Outcome:
    n = args.n
    if args.kmax <= args.kmin:
        raise BadConfig(f"the verdicts compare rows: need --kmax > --kmin, "
                        f"got {args.kmin}..{args.kmax}")
    if args.detail_out is not None and args.detail_k is None:
        raise BadConfig(f"--detail-out {args.detail_out} is read only with --detail-k, "
                        "and none is given")
    ks = list(range(args.kmin, args.kmax + 1))
    eps_list = [2.0**-k for k in ks]
    r_low = n - 1 if args.r is None else args.r
    rows = entropy_sweep(n, (r_low, n + 1), eps_list)
    verdicts = sweep_verdicts((r_low, n + 1), rows)
    table = [{"k": k, "eps": row.eps, "ent_low": row.ent[0], "ent_high": row.ent[1],
              "osc": row.osc, "apx_integral": row.apx_integral}
             for k, row in zip(ks, rows)]
    results = {
        "n": n, "r_low": r_low, "r_high": n + 1,
        "ent_low_ratio": verdicts[0].lhs,
        "ent_high_growth": rows[-1].ent[1] / rows[0].ent[1],
        "osc_growth": rows[-1].osc / rows[0].osc,
        "apx_integral_ratio": verdicts[3].lhs,
        "table": table,
    }
    if args.table:
        _write_csv_table(
            args.table,
            ["k", "eps", f"ent_r{r_low:g}", f"ent_r{n + 1}", "osc", "apx_integral"],
            [[ks, eps_list, *([row[key] for row in table]
                              for key in ("ent_low", "ent_high", "osc", "apx_integral"))]],
        )
        results["table_file"] = args.table
    if args.detail_k is not None:
        dens = chart_density(n, 2.0**-args.detail_k)
        path = args.detail_out or f"density_k{args.detail_k}.csv"
        _write_csv_table(path, ["t", "weight", "value"],
                         [[dens.measure.nodes, dens.measure.weights, dens.values]])
        results["detail_file"] = path
    inputs = {"n": n, "kmin": args.kmin, "kmax": args.kmax, "r": args.r}
    return inputs, results, verdicts


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


@functools.cache
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

    p = sub.add_parser("orlicz-norm", help="gauge norm of a density")
    common(p)
    p.add_argument("--young", default="1,1,0", help="p,q,r")
    p.add_argument("--data", default=None, help="CSV file t,weight,value")
    p.add_argument("--builtin", default="poly")
    p.add_argument("--coeffs", default=None, help="poly coefficients c0,c1,... (default 1)")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--interval", default="0,1")
    p.add_argument("--panels", type=int, default=8)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--emit-data", default=None, help="write the sampled data CSV")

    p = sub.add_parser("holder-young", help="product-integral bound checks")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="generator seed (>= 0)")
    p.add_argument("--sweep", type=int, default=0, help="random instances (0 = single)")
    p.add_argument("--young", default="1,1,0")
    p.add_argument("--indicator-mass", type=float, default=0.01)
    p.add_argument("--space-mass", type=float, default=1.0)

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

    p = sub.add_parser("glue", help="construct a certified glue")
    common(p)
    p.add_argument("--mode", choices=MODES, required=True)
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
        t_start = time.monotonic()
        with np.errstate(all="ignore"):  # numpy warnings would precede the JSON
            # found per call: bench/spans.py and tests rebind the cmd_* globals after import
            inputs, results, verdicts = globals()["cmd_" + args.command.replace("-", "_")](args)
        meta = {"elapsed_s": time.monotonic() - t_start,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "rng": RNG_NAME, "version": __version__, "numpy": _numpy_build()}
        report = {"command": args.command, "inputs": inputs, "results": results,
                  "verdicts": [dataclasses.asdict(v) for v in verdicts], "meta": meta}
        emit_report(report, args.format, args.out)
    except LuxglueError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "command": argv[0] if argv else None}
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 2
    return 0 if all(v.passed for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
