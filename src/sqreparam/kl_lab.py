"""Sharpness experiments around lifted stationary points.

The theory predicts how fast the distance to criticality must grow with
the objective gap near a stationary point (a Lojasiewicz-type
inequality with some exponent), and how lifting x = y*y transforms that
exponent:

* with strict complementarity (zero lies in the relative interior of
  the original subdifferential) an original exponent alpha becomes
  max(alpha, 1/2);
* without it, an original exponent alpha certified at sharpness order
  gamma becomes (1 + beta) / 2 with beta = 1 - gamma * (1 - alpha).

This module makes both sides measurable: predict_exponent evaluates the
transfer formulas, sample_scatter/estimate_exponent measure the actual
exponent from (gap, residual) scatter data, lemma61_probe measures the
constant in the underlying inequality, and run_first_order/fit_rate
observe the matching solver behaviour (linear versus sublinear decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceDetected,
    InsufficientSamples,
    InsufficientTrace,
    InvalidRange,
    NotAMinimizer,
    NotAStationaryPoint,
    NotConvex,
    NumericalFailure,
    OutOfDomain,
    UnsupportedProblemClass,
)
from .polyfunc import CompositeProblem, LocalModel, phi_value
from .polyhedra import (
    DEFAULT_TOL,
    project_onto_polyhedron,
    vrep_ri_membership,
    _as_vector,
)
from .reparam import DEFAULT_TOL_SUPPORT, lift_eval, lifted_residual

_INF = float("inf")


# ---------------------------------------------------------------------------
# Exponent prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentInputs:
    """What the transfer theorems need to know about the original problem.

    alpha: sharpness exponent of phi at the minimizer, in (0, 1).
    strict: whether strict complementarity holds there.
    gamma: order in (0, 1] at which the nonstrict inequality is
        certified; only consulted when strict is False.
    """

    alpha: float
    strict: bool
    gamma: float | None = None


def predict_exponent(inputs: ExponentInputs) -> float:
    """Predicted exponent of the lifted problem."""
    if not (0.0 < inputs.alpha < 1.0):
        raise InvalidRange(f"alpha must lie in (0, 1), got {inputs.alpha}")
    if inputs.strict:
        return max(inputs.alpha, 0.5)
    if inputs.gamma is None or not (0.0 < inputs.gamma <= 1.0):
        raise InvalidRange(
            f"nonstrict prediction needs gamma in (0, 1], got {inputs.gamma}")
    beta = 1.0 - inputs.gamma * (1.0 - inputs.alpha)
    return 0.5 * (1.0 + beta)


def strict_complementarity(p: CompositeProblem, xbar,
                           tol: float = DEFAULT_TOL) -> bool:
    """Whether 0 lies in the relative interior of subdiff phi(xbar).

    Requires xbar to be stationary in the first place
    (NotAStationaryPoint otherwise).
    """
    pt = LocalModel(p.g, p.f, _as_vector(xbar, p.n, "xbar"), tol)
    if not pt.in_domain:
        raise OutOfDomain("xbar is outside the domain of g")
    if not pt.phi_stationary:
        raise NotAStationaryPoint("xbar is not stationary for phi")
    return vrep_ri_membership(pt.S.translate(pt.grad), np.zeros(p.n))


# ---------------------------------------------------------------------------
# Scatter sampling and exponent estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterConfig:
    """Sampling plan around a stationary point.

    Radii are log-spaced in [delta_min, delta_max]; each radius is
    paired with every unit direction.  Perturbed squared points are
    projected back onto the domain of g, so every sample is feasible by
    construction.  Gaps below the relative floor are discarded.
    """

    delta_min: float = 1e-6
    delta_max: float = 1e-2
    n_radii: int = 64
    n_dirs: int = 32
    n_bins: int = 12
    min_bins: int = 8
    seed: int = 0
    verdict_tol: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.delta_min < self.delta_max):
            raise InvalidRange("need 0 < delta_min < delta_max")
        if not math.isfinite(self.delta_max):
            raise InvalidRange("delta_max must be finite")
        if self.n_radii < 2 or self.n_dirs < 1:
            raise InvalidRange("need at least 2 radii and 1 direction")
        if self.n_bins < self.min_bins or self.min_bins < 2:
            raise InvalidRange("need n_bins >= min_bins >= 2")
        if self.seed < 0:
            raise InvalidRange(f"seed must be nonnegative, got {self.seed}")


def _perturbations(p: CompositeProblem, xbar, base: float,
                   config: ScatterConfig, tol: float):
    """Feasible points near xbar whose gap phi(x) - base clears the floor.

    Yields (x, gap, signs) in the sampling plan's order: every radius
    with every seeded unit direction, the perturbed point projected back
    onto the domain of g.  signs is a random sign vector, drawn for each
    candidate before the gap-floor test, from the same generator as the
    directions.  Raises InsufficientSamples when no candidate clears
    the floor.
    """
    rng = np.random.default_rng(config.seed)
    dirs = rng.standard_normal((config.n_dirs, p.n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    deltas = np.geomspace(config.delta_min, config.delta_max, config.n_radii)
    floor = 10.0 * np.finfo(float).eps * (1.0 + abs(base))
    kept = 0
    for delta in deltas:
        for u in dirs:
            x = project_onto_polyhedron(p.g.domain, xbar + delta * u,
                                        start=xbar)
            signs = rng.integers(0, 2, size=p.n) * 2.0 - 1.0
            gap = phi_value(p, x, tol) - base
            if gap > floor:
                kept += 1
                yield x, gap, signs
    if not kept:
        raise InsufficientSamples("no sample cleared the gap floor")


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ys against xs and its R^2."""
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return slope, (1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot)


def sample_scatter(p: CompositeProblem, ybar,
                   config: ScatterConfig = ScatterConfig(),
                   tol: float = DEFAULT_TOL,
                   tol_support: float = DEFAULT_TOL_SUPPORT) -> np.ndarray:
    """(gap, lifted residual) samples around a lifted stationary ybar.

    Returns an array of shape (n_samples, 2) sorted by gap.  Raises
    NotAStationaryPoint when ybar itself is not stationary and
    InsufficientSamples when every sample falls below the gap floor.
    """
    ybar = _as_vector(ybar, p.n, "ybar")
    base = lift_eval(p, ybar, tol)
    if not np.isfinite(base):
        raise OutOfDomain("ybar*ybar is outside the domain of g")
    if lifted_residual(p, ybar, tol_support, tol) > tol:
        raise NotAStationaryPoint("ybar is not lifted stationary")

    rows = [(gap, lifted_residual(p, signs * np.sqrt(np.maximum(x, 0.0)),
                                  tol_support, tol))
            for x, gap, signs in _perturbations(p, ybar * ybar, base,
                                                config, tol)]
    return np.array(sorted(rows))


@dataclass(frozen=True)
class KLFitReport:
    """Log-log fit of the lower envelope of a residual scatter.

    alpha_hat is the fitted slope of log residual against log gap over
    the per-bin minima.  predicted/verdict are filled when transfer
    inputs were supplied; the verdict tolerance comes from the sampling
    config.
    """

    alpha_hat: float
    r_squared: float
    n_samples: int
    n_bins_used: int
    gap_range: tuple
    bin_minima: tuple
    predicted: float | None = None
    verdict: bool | None = None


def estimate_exponent(p: CompositeProblem, ybar,
                      config: ScatterConfig = ScatterConfig(),
                      inputs: ExponentInputs | None = None,
                      tol: float = DEFAULT_TOL,
                      samples: np.ndarray | None = None) -> KLFitReport:
    """Estimate the lifted exponent from scatter data.

    Gaps are split into log-spaced bins; within each bin only the
    minimum-residual sample matters (the inequality bounds the residual
    from below, so the lower envelope carries the exponent).  A least
    squares line through the envelope gives alpha_hat.  Pass samples to
    reuse a precomputed sample_scatter array for the same point and
    config.
    """
    if samples is None:
        samples = sample_scatter(p, ybar, config, tol)
    gaps = samples[:, 0]
    residuals = samples[:, 1]
    keep = residuals > 0.0
    gaps, residuals = gaps[keep], residuals[keep]
    if gaps.size < config.min_bins:
        raise InsufficientSamples("too few positive-residual samples")

    log_g = np.log10(gaps)
    log_r = np.log10(residuals)
    edges = np.linspace(log_g.min(), log_g.max(), config.n_bins + 1)
    edges[-1] += 1e-12
    minima = []
    for b in range(config.n_bins):
        mask = (log_g >= edges[b]) & (log_g < edges[b + 1])
        if not mask.any():
            continue
        i = np.nonzero(mask)[0][np.argmin(log_r[mask])]
        minima.append((float(log_g[i]), float(log_r[i])))
    if len(minima) < config.min_bins:
        raise InsufficientSamples(
            f"only {len(minima)} nonempty bins, need {config.min_bins}")

    slope, r_squared = _line_fit(np.array([m[0] for m in minima]),
                                 np.array([m[1] for m in minima]))

    predicted = predict_exponent(inputs) if inputs is not None else None
    verdict = (bool(abs(slope - predicted) <= config.verdict_tol)
               if predicted is not None else None)
    return KLFitReport(float(slope), r_squared, int(samples.shape[0]),
                       len(minima), (float(gaps.min()), float(gaps.max())),
                       tuple(minima), predicted, verdict)


def lemma61_probe(p: CompositeProblem, xbar, beta: float,
                  config: ScatterConfig = ScatterConfig(),
                  tol: float = DEFAULT_TOL,
                  tol_support: float = DEFAULT_TOL_SUPPORT) -> float:
    """Empirical infimum of the sharpness ratio at order beta.

    For sampled feasible x near the global minimizer xbar, with v the
    minimum-norm subgradient of phi at x and I the support of xbar,
    the probed quantity is

        [ sum_{i in I} v_i^2 + sum_{i not in I} |x_i - xbar_i| v_i^2 ]
            / (phi(x) - phi(xbar))^(1 + beta).

    The infimum over samples lower-bounds the modulus in the
    inequality; a clearly positive value is evidence the inequality
    holds at this order.  Requires a convex problem and a global
    minimizer.
    """
    if not (0.0 <= beta < 1.0):
        raise InvalidRange(f"beta must lie in [0, 1), got {beta}")
    xbar = _as_vector(xbar, p.n, "xbar")
    centre = LocalModel(p.g, p.f, xbar, tol)
    if not centre.in_domain:
        raise OutOfDomain("xbar is outside the domain of g")
    eigs = np.linalg.eigvalsh(np.asarray(p.f.hess(xbar), dtype=float))
    if eigs.size and eigs.min() < -1e-9:
        raise NotConvex("smooth part has a negative curvature direction")
    base = phi_value(p, xbar, tol)
    if not centre.phi_stationary:
        raise NotAMinimizer("xbar is not stationary, hence not a minimizer")

    support = np.abs(xbar) > tol_support
    best = _INF
    for x, gap, _ in _perturbations(p, xbar, base, config, tol):
        pt = LocalModel(p.g, p.f, x, tol)
        v = pt.grad + pt.phi_min_norm[1]
        lhs = float(np.sum(v[support] ** 2)
                    + np.abs(x[~support] - xbar[~support])
                    @ (v[~support] ** 2))
        best = min(best, lhs / gap ** (1.0 + beta))
    return best


# ---------------------------------------------------------------------------
# First-order solver runs and rate classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Detected decay class of an objective-gap sequence.

    kind is "linear" (gap ~ rho^k, parameter rho) or "sublinear"
    (gap ~ k^-p, parameter p); r_squared scores the winning fit.
    """

    kind: str
    parameter: float
    r_squared: float


@dataclass
class SolverTrace:
    """Iterate log of a first-order run.

    iterates holds (k, objective gap, stationarity residual, step) per
    iteration; gaps are measured against f_star when supplied and
    against the best visited value otherwise.
    """

    variant: str
    iterates: list
    f_star: float | None = None


# c1 = 0.1 intentionally steep: on the sphere a unit step can flip the
# iterate through the minimizer with a fourth-order objective decrease,
# and a loose Armijo constant accepts that crawl forever.
_ARMIJO_C1 = 0.1
_ARMIJO_SHRINK = 0.8
_ARMIJO_MAX_BACKTRACKS = 120
# fewest positive-gap iterates fit_rate classifies
_MIN_RATE_POINTS = 20


def _power_iteration_bound(Q: np.ndarray) -> float:
    """Spectral norm estimate of a symmetric matrix: 80 power iterations
    from a deterministic start."""
    n = Q.shape[0]
    v = np.ones(n) / math.sqrt(n)
    bound = 0.0
    for _ in range(80):
        w = Q @ v
        norm = float(np.linalg.norm(w))
        if norm <= 1e-300:
            return 0.0
        bound = norm
        v = w / norm
    return bound


def _run_projected_gradient(p: CompositeProblem, start, steps: int,
                            f_star: float | None) -> SolverTrace:
    if p.g.n_pieces:
        raise UnsupportedProblemClass(
            "the original-variable solver needs an indicator g")
    x = project_onto_polyhedron(p.g.domain, np.asarray(start, float))
    L = _power_iteration_bound(np.asarray(p.f.hess(x), dtype=float))
    step = 1.0 / L if L > 1e-12 else 1.0
    records = []
    values = []
    for k in range(steps):
        grad = p.f.grad(x)
        x_next = project_onto_polyhedron(p.g.domain, x - step * grad, start=x)
        residual = float(np.linalg.norm(x - x_next)) / step
        values.append(phi_value(p, x))
        records.append([k, values[-1], residual, step])
        if np.array_equal(x_next, x):
            break
        x = x_next
    return _finish_trace("original", records, values, f_star)


def _armijo_step(h, y, grad, descent_sq, retract):
    """Backtracking step along -grad with a retraction map."""
    base = h(y)
    t = 1.0
    for _ in range(_ARMIJO_MAX_BACKTRACKS):
        cand = retract(y - t * grad)
        if h(cand) <= base - _ARMIJO_C1 * t * descent_sq:
            return t, cand
        t *= _ARMIJO_SHRINK
    return 0.0, y


def _run_lifted_descent(p: CompositeProblem, start, steps: int,
                        f_star: float | None) -> SolverTrace:
    y = np.asarray(start, dtype=float).copy()

    def h(v):
        return float(p.f.value(v * v))

    if p.g.kind == "orthant":
        def rgrad(v):
            return 2.0 * v * p.f.grad(v * v)

        def retract(v):
            return v
    elif p.g.kind == "simplex":
        radius = math.sqrt(float(p.g.domain.b_eq[0] / p.g.domain.A_eq[0, 0]))

        def retract(v):
            norm = float(np.linalg.norm(v))
            if norm <= 1e-300:
                raise NumericalFailure("sphere retraction hit the origin")
            return (radius / norm) * v

        def rgrad(v):
            full = 2.0 * v * p.f.grad(v * v)
            return full - (float(full @ v) / float(v @ v)) * v

        y = retract(y)
    else:
        raise UnsupportedProblemClass(
            "the lifted solver covers orthant and simplex indicators only")

    records = []
    values = []
    prev = h(y)
    for k in range(steps):
        grad = rgrad(y)
        residual = float(np.linalg.norm(grad))
        values.append(prev)
        if residual == 0.0:
            records.append([k, prev, residual, 0.0])
            break
        t, y_next = _armijo_step(h, y, grad, residual * residual, retract)
        records.append([k, prev, residual, t])
        nxt = h(y_next)
        if nxt > prev + 1e-10 * (1.0 + abs(prev)):
            raise DivergenceDetected(
                f"objective rose from {prev!r} to {nxt!r} at step {k}")
        if t == 0.0 or nxt >= prev or np.array_equal(y_next, y):
            break
        y, prev = y_next, nxt
    return _finish_trace("lifted", records, values, f_star)


def _finish_trace(variant: str, records, values, f_star) -> SolverTrace:
    best = f_star if f_star is not None else (min(values) if values else 0.0)
    iterates = [(k, max(val - best, 0.0), res, st)
                for (k, val, res, st) in records]
    return SolverTrace(variant, iterates, f_star)


def run_first_order(p: CompositeProblem, variant: str, start,
                    steps: int = 10000,
                    f_star: float | None = None) -> SolverTrace:
    """Run a first-order method and log its trace.

    variant "original": projected gradient on phi with the constant
    step 1/L, L estimated by power iteration on the Hessian; g must be
    an indicator.  variant "lifted": descent on f(y*y), plain Armijo
    backtracking when g is the orthant indicator and sphere-retracted
    backtracking when g is a simplex indicator.
    """
    start = _as_vector(start, p.n, "start")
    if steps < 1:
        raise InvalidRange("steps must be positive")
    if variant == "original":
        return _run_projected_gradient(p, start, steps, f_star)
    if variant == "lifted":
        return _run_lifted_descent(p, start, steps, f_star)
    raise UnsupportedProblemClass(f"unknown variant {variant!r}")


def fit_rate(trace: SolverTrace) -> RateFit:
    """Classify the tail decay of a trace as linear or sublinear.

    Uses the last half of the positive-gap iterates and compares the
    log-linear fit (gap ~ rho^k) with the log-log fit (gap ~ k^-p) by
    coefficient of determination.
    """
    ks = np.array([rec[0] for rec in trace.iterates], dtype=float)
    gaps = np.array([rec[1] for rec in trace.iterates], dtype=float)
    pos = gaps > 0.0
    ks, gaps = ks[pos], gaps[pos]
    if ks.size < _MIN_RATE_POINTS:
        raise InsufficientTrace(
            f"only {ks.size} positive-gap iterates, need {_MIN_RATE_POINTS}")
    tail = slice(ks.size // 2, None)
    ks, gaps = ks[tail], gaps[tail]
    if float(gaps.max()) <= float(gaps.min()):
        raise InsufficientTrace("gap tail shows no decay")
    log_gap = np.log(gaps)

    slope_lin, r2_lin = _line_fit(ks, log_gap)
    positive_k = ks > 0.0
    slope_sub, r2_sub = (_line_fit(np.log(ks[positive_k]), log_gap)
                         if positive_k.all() else (0.0, -_INF))

    if r2_lin >= r2_sub:
        return RateFit("linear", float(np.exp(slope_lin)), r2_lin)
    return RateFit("sublinear", float(-slope_sub), r2_sub)
