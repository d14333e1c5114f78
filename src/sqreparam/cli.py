"""Command line interface: problem files in, reports and CSV out.

A problem file is a small UTF-8 JSON object:

    {
      "n": 2,
      "f": {"Q": [[1, 0], [0, 1]], "q": [-1, 1], "r": 1.0},
      "g": {
        "pieces": [{"a": [1, 0], "b": 0.0}],
        "domain": {"A_ineq": [[1, 1]], "b_ineq": [2.0],
                   "A_eq": [], "b_eq": []}
      },
      "meta": {"name": "demo"}
    }

Every block except "n" is optional: f defaults to the zero quadratic,
pieces to the empty list (plain indicator), domain to the nonnegative
orthant.  Domains are always intersected with the orthant.  meta may
carry "known_minimizer", "known_alpha", "known_gamma".

Exit codes: 0 success, 2 parse error, 3 validation error, 4 numerical
failure, 5 inconsistency detected.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import CHECKS
from .errors import (
    DimensionMismatch,
    EmptySet,
    InconsistencyDetected,
    InfeasiblePolyhedron,
    InsufficientTrace,
    InvalidRange,
    NotAMinimizer,
    NotAStationaryPoint,
    NotConvex,
    NotStationaryError,
    OutOfDomain,
    ParseError,
    SqreparamError,
    TooLarge,
    UnboundedPolyhedron,
    UnsupportedProblemClass,
    ValidationError,
)
from .kl_lab import (
    ExponentInputs,
    ScatterConfig,
    estimate_exponent,
    fit_rate,
    run_first_order,
    sample_scatter,
    strict_complementarity,
)
from .polyfunc import (
    CompositeProblem,
    PolyhedralFunction,
    SmoothQuadratic,
    phi_value,
)
from .polyhedra import DEFAULT_TOL, Polyhedron
from .reparam import DEFAULT_TOL_SUPPORT, classify_first_order, lift_point
from .second_order import correspondence_check

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_VALIDATION = 3
_EXIT_NUMERICAL = 4
_EXIT_INCONSISTENT = 5

_VALIDATION_ERRORS = (
    ValidationError,
    DimensionMismatch,
    InvalidRange,
    OutOfDomain,
    NotAStationaryPoint,
    NotAMinimizer,
    NotConvex,
    NotStationaryError,
    TooLarge,
    UnsupportedProblemClass,
    EmptySet,
    InfeasiblePolyhedron,
    UnboundedPolyhedron,
)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem plus its free-form metadata block."""

    problem: CompositeProblem
    meta: dict


_TOP_KEYS = {"n", "f", "g", "meta"}
_F_KEYS = {"Q", "q", "r"}
_G_KEYS = {"pieces", "domain"}
_DOM_KEYS = {"A_ineq", "b_ineq", "A_eq", "b_eq"}
_PIECE_KEYS = {"a", "b"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")


def _as_block(data: dict, key: str, where: str) -> dict:
    block = data.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ParseError(f"{where}.{key}: expected an object")
    return block


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _num_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array of numbers")
    return [_num(v, where) for v in value]


def _num_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array of row arrays")
    rows = [_num_list(row, f"{where}[{i}]") for i, row in enumerate(value)]
    if not rows:
        return np.zeros((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{where}: rows have unequal lengths")
    return np.array(rows)


def _shaped_matrix(block: dict, key: str, n: int, where: str,
                   rows_free: bool = True) -> np.ndarray | None:
    if key not in block:
        return None
    mat = _num_matrix(block[key], f"{where}.{key}")
    if mat.size == 0:
        return np.zeros((0, n))
    if mat.shape[1] != n or (not rows_free and mat.shape[0] != n):
        want = f"{n} x {n}" if not rows_free else f"m x {n}"
        raise ValidationError(
            f"{where}.{key}: expected shape {want}, got {mat.shape[0]} x {mat.shape[1]}")
    return mat


def parse_problem_dict(data, where: str = "problem") -> ProblemFile:
    """Build a validated ProblemFile from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    _check_keys(data, _TOP_KEYS, where)
    if "n" not in data:
        raise ParseError(f"{where}: missing field 'n'")
    n_raw = data["n"]
    if isinstance(n_raw, bool) or not isinstance(n_raw, int):
        raise ParseError(f"{where}.n: expected an integer, got {n_raw!r}")
    if n_raw < 1:
        raise ValidationError(f"{where}.n: must be at least 1, got {n_raw}")
    n = n_raw

    fblock = _as_block(data, "f", where)
    _check_keys(fblock, _F_KEYS, f"{where}.f")
    Q = _shaped_matrix(fblock, "Q", n, f"{where}.f", rows_free=False)
    q = (_num_list(fblock["q"], f"{where}.f.q") if "q" in fblock else None)
    if q is not None and len(q) != n:
        raise ValidationError(f"{where}.f.q: expected {n} entries, got {len(q)}")
    r = _num(fblock["r"], f"{where}.f.r") if "r" in fblock else 0.0

    gblock = _as_block(data, "g", where)
    _check_keys(gblock, _G_KEYS, f"{where}.g")
    pieces = gblock.get("pieces", [])
    if not isinstance(pieces, list):
        raise ParseError(f"{where}.g.pieces: expected an array")
    pieces_A = []
    pieces_b = []
    for i, piece in enumerate(pieces):
        pwhere = f"{where}.g.pieces[{i}]"
        if not isinstance(piece, dict):
            raise ParseError(f"{pwhere}: expected an object with 'a' and 'b'")
        _check_keys(piece, _PIECE_KEYS, pwhere)
        if "a" not in piece:
            raise ParseError(f"{pwhere}: missing field 'a'")
        a = _num_list(piece["a"], f"{pwhere}.a")
        if len(a) != n:
            raise ValidationError(
                f"{pwhere}.a: expected {n} entries, got {len(a)}")
        pieces_A.append(a)
        pieces_b.append(_num(piece["b"], f"{pwhere}.b") if "b" in piece else 0.0)

    dom_block = _as_block(gblock, "domain", f"{where}.g")
    _check_keys(dom_block, _DOM_KEYS, f"{where}.g.domain")
    A_ineq = _shaped_matrix(dom_block, "A_ineq", n, f"{where}.g.domain")
    A_eq = _shaped_matrix(dom_block, "A_eq", n, f"{where}.g.domain")
    b_ineq = (_num_list(dom_block["b_ineq"], f"{where}.g.domain.b_ineq")
              if "b_ineq" in dom_block else None)
    b_eq = (_num_list(dom_block["b_eq"], f"{where}.g.domain.b_eq")
            if "b_eq" in dom_block else None)

    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{where}.meta: expected an object")

    try:
        f = SmoothQuadratic(Q if Q is not None else np.zeros((n, n)),
                            q if q is not None else np.zeros(n), r)
        domain = Polyhedron(n, A_ineq, b_ineq, A_eq, b_eq)
        g = PolyhedralFunction(
            n,
            np.array(pieces_A) if pieces_A else None,
            np.array(pieces_b) if pieces_b else None,
            domain)
        problem = CompositeProblem(f, g)
    except InfeasiblePolyhedron as err:
        raise ValidationError(f"{where}: empty domain ({err})") from err
    except DimensionMismatch as err:
        raise ValidationError(f"{where}: {err}") from err
    return ProblemFile(problem, dict(meta))


def parse_problem_file(path) -> ProblemFile:
    """Read, decode, and validate a JSON problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return parse_problem_dict(data, where=str(path))


def serialize_problem(pf: ProblemFile) -> dict:
    """Inverse of parse_problem_dict, full precision."""
    p = pf.problem
    dom = p.g.domain
    return {
        "n": p.n,
        "f": {"Q": p.f.Q.tolist(), "q": p.f.q.tolist(), "r": p.f.r},
        "g": {
            "pieces": [{"a": a.tolist(), "b": float(b)}
                       for a, b in zip(p.g.pieces_A, p.g.pieces_b)],
            "domain": {"A_ineq": dom.A_ineq.tolist(),
                       "b_ineq": dom.b_ineq.tolist(),
                       "A_eq": dom.A_eq.tolist(),
                       "b_eq": dom.b_eq.tolist()},
        },
        "meta": dict(pf.meta),
    }


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def format_field(value) -> str:
    """CSV field text: floats at 17 significant digits, exact round trip."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(rows, path, header=()) -> None:
    """Write rows as RFC-4180-style CSV: LF endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        if header:
            writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_field(v) for v in row])


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------


def _parse_vector_arg(text: str, n: int, flag: str) -> np.ndarray:
    body = text.strip().strip("[]()")
    parts = [p.strip() for p in body.replace(";", ",").split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as err:
        raise ParseError(
            f"{flag}: cannot parse {text!r} as comma-separated floats") from err
    if len(values) != n:
        raise ValidationError(
            f"{flag}: expected {n} components, got {len(values)}")
    return np.array(values)


def _check_tol(value: float, flag: str) -> None:
    if not (np.isfinite(value) and value >= 0.0):
        raise ValidationError(
            f"{flag}: must be finite and nonnegative, got {value!r}")


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(format(float(v), ".12g") for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _kv(key: str, value) -> None:
    print(f"{key} = {_fmt(value)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> int:
    pf = parse_problem_file(args.file)
    p = pf.problem
    y = _parse_vector_arg(args.y, p.n, "--y")
    _check_tol(args.tol, "--tol")
    _check_tol(args.tol_support, "--tol-support")
    _kv("command", "certify")
    _kv("problem", args.file)
    _kv("n", p.n)
    _kv("y", y)
    pt = lift_point(p, y, tol_support=args.tol_support, tol=args.tol)
    report = classify_first_order(p, pt)
    _kv("in_domain", report.in_domain)
    _kv("support", list(report.support))
    _kv("lifted_residual", report.lifted_residual)
    _kv("phi_residual", report.phi_residual)
    _kv("min_support_abs", report.min_support_abs)
    _kv("degenerate_activity", report.degenerate_activity)
    _kv("stationary_for_Phi", report.stationary_for_Phi)
    _kv("stationary_for_phi", report.stationary_for_phi)
    if not report.in_domain:
        print("second_order = skipped (y*y lies outside the domain of g)")
        return _EXIT_OK
    corr = correspondence_check(p, pt)
    _kv("second_order_nonneg_on_SI", corr.second_order_nonneg_on_SI)
    if corr.witness_lambda is not None:
        _kv("witness_lambda", np.asarray(corr.witness_lambda))
    if corr.negative_direction is not None:
        _kv("negative_direction", np.asarray(corr.negative_direction))
    _kv("consistent", corr.consistent)
    return _EXIT_OK


def _cmd_strict_comp(args) -> int:
    pf = parse_problem_file(args.file)
    p = pf.problem
    x = _parse_vector_arg(args.x, p.n, "--x")
    _check_tol(args.tol, "--tol")
    _kv("command", "strict-comp")
    _kv("problem", args.file)
    _kv("x", x)
    _kv("strict_complementarity", strict_complementarity(p, x, tol=args.tol))
    return _EXIT_OK


def _cmd_kl_fit(args) -> int:
    pf = parse_problem_file(args.file)
    p = pf.problem
    y = _parse_vector_arg(args.y, p.n, "--y")
    config = ScatterConfig(delta_min=args.dmin, delta_max=args.dmax,
                           seed=args.seed)
    inputs = None
    if args.alpha is not None:
        inputs = ExponentInputs(args.alpha, bool(args.strict), args.gamma)
    _kv("command", "kl-fit")
    _kv("problem", args.file)
    _kv("y", y)
    _kv("seed", args.seed)
    _kv("delta_min", config.delta_min)
    _kv("delta_max", config.delta_max)
    samples = sample_scatter(p, y, config)
    report = estimate_exponent(p, y, config, inputs, samples=samples)
    _kv("n_samples", report.n_samples)
    _kv("n_bins_used", report.n_bins_used)
    _kv("gap_range", report.gap_range)
    _kv("alpha_hat", report.alpha_hat)
    _kv("r_squared", report.r_squared)
    if report.predicted is not None:
        _kv("predicted", report.predicted)
        _kv("verdict", report.verdict)
    if args.out:
        emit_csv([(args.seed, gap, res) for gap, res in samples],
                 args.out, header=("seed", "gap", "residual"))
        _kv("out", args.out)
    return _EXIT_OK


def _cmd_solve(args) -> int:
    pf = parse_problem_file(args.file)
    p = pf.problem
    if args.variant == "original":
        if args.x0 is None:
            raise ValidationError("--variant original needs --x0")
        start = _parse_vector_arg(args.x0, p.n, "--x0")
    else:
        if args.y0 is None:
            raise ValidationError("--variant lifted needs --y0")
        start = _parse_vector_arg(args.y0, p.n, "--y0")
    f_star = None
    if "known_minimizer" in pf.meta:
        xm = np.array(_num_list(pf.meta["known_minimizer"],
                                f"{args.file}.meta.known_minimizer"))
        if xm.size != p.n:
            raise ValidationError("meta.known_minimizer has the wrong length")
        f_star = phi_value(p, xm)
    _kv("command", "solve")
    _kv("problem", args.file)
    _kv("variant", args.variant)
    _kv("steps_requested", args.steps)
    if f_star is not None:
        _kv("f_star", f_star)
    trace = run_first_order(p, args.variant, start, steps=args.steps,
                            f_star=f_star)
    _kv("iterates", len(trace.iterates))
    last = trace.iterates[-1]
    _kv("final_gap", last[1])
    _kv("final_residual", last[2])
    try:
        rate = fit_rate(trace)
        _kv("rate_kind", rate.kind)
        _kv("rate_parameter", rate.parameter)
        _kv("rate_r_squared", rate.r_squared)
    except InsufficientTrace as err:
        _kv("rate_kind", f"undetermined ({err})")
    if args.out:
        emit_csv(trace.iterates, args.out,
                 header=("k", "gap", "residual", "step"))
        _kv("out", args.out)
    return _EXIT_OK


def _cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"--seed: must be nonnegative, got {args.seed}")
    _kv("command", "selftest")
    _kv("seed", args.seed)
    failures = 0
    for name, battery, count in CHECKS:
        result = battery() if count is None else battery(args.seed, count)
        print(f"[{'PASS' if result.ok else 'FAIL'}] {name}: {result.detail}")
        failures += 0 if result.ok else 1
    print(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} groups passed")
    return _EXIT_OK if failures == 0 else _EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_tol_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="stationarity tolerance (default 1e-9)")
    sub.add_argument("--tol-support", dest="tol_support", type=float,
                     default=DEFAULT_TOL_SUPPORT,
                     help="support threshold on |y_i| (default 1e-8)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqreparam",
        description="Stationarity certification and sharpness experiments "
                    "for square-reparameterized composite problems.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    certify = subs.add_parser(
        "certify", help="first- and second-order stationarity report")
    certify.add_argument("file")
    certify.add_argument("--y", required=True,
                         help="point, comma-separated floats")
    _add_tol_flags(certify)
    certify.set_defaults(handler=_cmd_certify)

    strict = subs.add_parser(
        "strict-comp", help="strict complementarity at a stationary x")
    strict.add_argument("file")
    strict.add_argument("--x", required=True,
                        help="point, comma-separated floats")
    strict.add_argument("--tol", type=float, default=DEFAULT_TOL)
    strict.set_defaults(handler=_cmd_strict_comp)

    klfit = subs.add_parser(
        "kl-fit", help="sample a residual scatter and fit the exponent")
    klfit.add_argument("file")
    klfit.add_argument("--y", required=True)
    klfit.add_argument("--alpha", type=float, default=None,
                       help="original exponent, enables the prediction")
    klfit.add_argument("--gamma", type=float, default=None,
                       help="certification order for the nonstrict transfer")
    klfit.add_argument("--strict", action="store_true",
                       help="assume strict complementarity in the prediction")
    klfit.add_argument("--seed", type=int, default=0)
    klfit.add_argument("--dmin", type=float, default=1e-6)
    klfit.add_argument("--dmax", type=float, default=1e-2)
    klfit.add_argument("--out", default=None, help="scatter CSV path")
    klfit.set_defaults(handler=_cmd_kl_fit)

    solve = subs.add_parser(
        "solve", help="run a first-order method and classify its rate")
    solve.add_argument("file")
    solve.add_argument("--variant", choices=("original", "lifted"),
                       required=True)
    solve.add_argument("--y0", default=None, help="lifted start point")
    solve.add_argument("--x0", default=None, help="original start point")
    solve.add_argument("--steps", type=int, default=10000)
    solve.add_argument("--out", default=None, help="trace CSV path")
    solve.set_defaults(handler=_cmd_solve)

    selftest = subs.add_parser(
        "selftest", help="run the oracle-agreement batteries")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return _EXIT_PARSE
    except _VALIDATION_ERRORS as err:
        print(f"validation error: {err}", file=sys.stderr)
        return _EXIT_VALIDATION
    except InconsistencyDetected as err:
        print(f"inconsistency detected: {err}", file=sys.stderr)
        report = getattr(err, "report", None)
        if report is not None:
            print(f"report: {report}", file=sys.stderr)
        return _EXIT_INCONSISTENT
    except SqreparamError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
