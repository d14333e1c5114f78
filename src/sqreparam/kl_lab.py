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
    DimensionMismatch,
    InsufficientSamples,
    InsufficientTrace,
    InvalidRange,
    NotAMinimizer,
    NotAStationaryPoint,
    NotConvex,
    NumericalFailure,
    OutOfDomain,
    OutOfLiftedDomain,
    UnsupportedProblemClass,
)
from .polyfunc import (CompositeProblem, LocalModel, SmoothQuadratic,
                       phi_value, _f_kernels, _f_stack_kernels, _g_rows,
                       _min_norm_rows)
from .polyhedra import (
    DEFAULT_TOL,
    check_int,
    vrep_ri_membership,
    _as_matrix,
    _as_vector,
    _project_rows,
)
from .reparam import lift_eval, lift_point, support_set

_INF = float("inf")
_TINY = float(np.finfo(float).tiny)


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
    An alpha or a needed gamma out of range raises InvalidRange.
    """

    alpha: float
    strict: bool
    gamma: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidRange(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.strict and (self.gamma is None
                                or not (0.0 < self.gamma <= 1.0)):
            raise InvalidRange(
                f"nonstrict prediction needs gamma in (0, 1], got {self.gamma}")


def predict_exponent(inputs: ExponentInputs) -> float:
    """Predicted exponent of the lifted problem."""
    if inputs.strict:
        return max(inputs.alpha, 0.5)
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

_N_BINS = 12          # log-spaced gap bins of the envelope fit
_MIN_BINS = 8         # nonempty bins (and samples) a fit needs at least
_VERDICT_TOL = 0.05   # largest |alpha_hat - predicted| a verdict accepts


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
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.delta_min < self.delta_max):
            raise InvalidRange("need 0 < delta_min < delta_max")
        if not math.isfinite(self.delta_max):
            raise InvalidRange("delta_max must be finite")
        check_int(self.n_radii, "n_radii", 2)
        check_int(self.n_dirs, "n_dirs", 1)
        check_int(self.seed, "seed")


def _perturbations(p: CompositeProblem, xbar, base: float,
                   config: ScatterConfig):
    """Feasible points near xbar whose gap phi(x) - base clears the floor.

    Returns (x, gap, signs), one row per kept sample, in the sampling
    plan's order: every radius with every seeded unit direction, radius
    by radius, the perturbed point projected back onto the domain of g.
    signs holds random sign vectors, one per candidate, drawn in one call
    after the directions from the same generator.  f is evaluated in one
    call of its stack kernel (polyfunc._f_stack_kernels) over the rows
    inside the domain.  Raises InsufficientSamples when no candidate
    clears the floor.
    """
    rng = np.random.default_rng(config.seed)
    dirs = rng.standard_normal((config.n_dirs, p.n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    deltas = np.geomspace(config.delta_min, config.delta_max, config.n_radii)
    X = _project_rows(p.g.domain,
                      (xbar + deltas[:, None, None] * dirs).reshape(-1, p.n))
    signs = rng.integers(0, 2, size=X.shape) * 2.0 - 1.0
    # phi = f + g, with f evaluated only where g is finite
    g = _g_rows(p.g, X)
    inside = g < _INF
    gap = np.full(g.shape, _INF)
    gap[inside] = _f_stack_kernels(p.f)[0](X[inside]) + g[inside]
    gap -= base
    keep = gap > 10.0 * np.finfo(float).eps * (1.0 + abs(base))
    if not keep.any():
        raise InsufficientSamples("no sample cleared the gap floor")
    return X[keep], gap[keep], signs[keep]


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ys against xs and its R^2."""
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return slope, (1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot)


def sample_scatter(p: CompositeProblem, ybar,
                   config: ScatterConfig = ScatterConfig()) -> np.ndarray:
    """(gap, lifted residual) samples around a lifted stationary ybar.

    Returns an array of shape (n_samples, 2) sorted by gap.  Raises
    NotAStationaryPoint when the model at ybar is not Phi_stationary and
    InsufficientSamples when every sample falls below the gap floor.
    """
    ybar = _as_vector(ybar, p.n, "ybar")
    base = lift_eval(p, ybar)
    if not np.isfinite(base):
        raise OutOfDomain("ybar*ybar is outside the domain of g")
    if not lift_point(p, ybar).Phi_stationary:
        raise NotAStationaryPoint("ybar is not lifted stationary")

    X, gaps, signs = _perturbations(p, ybar * ybar, base, config)
    Y = signs * np.sqrt(np.maximum(X, 0.0))
    X = Y * Y
    if not (_g_rows(p.g, X) < _INF).all():
        raise OutOfLiftedDomain("y*y is outside the domain of g")
    residuals = 2.0 * _min_norm_rows(p, X, np.abs(Y))[1]
    order = np.lexsort((residuals, gaps))
    return np.column_stack([gaps[order], residuals[order]])


@dataclass(frozen=True)
class KLFitReport:
    """Log-log fit of the lower envelope of a residual scatter.

    alpha_hat is the fitted slope of log residual against log gap over
    the per-bin minima.  predicted/verdict are filled when transfer
    inputs were supplied; the verdict holds when |alpha_hat - predicted|
    is at most 0.05.
    """

    alpha_hat: float
    r_squared: float
    n_samples: int
    n_bins_used: int
    gap_range: tuple
    predicted: float | None = None
    verdict: bool | None = None


def estimate_exponent(p: CompositeProblem, ybar,
                      config: ScatterConfig = ScatterConfig(),
                      inputs: ExponentInputs | None = None,
                      samples: np.ndarray | None = None) -> KLFitReport:
    """Estimate the lifted exponent from scatter data.

    Gaps are split into log-spaced bins; within each bin only the
    minimum-residual sample matters (the inequality bounds the residual
    from below, so the lower envelope carries the exponent).  A least
    squares line through the envelope gives alpha_hat.  Pass samples to
    reuse a precomputed sample_scatter array for the same point and
    config: a finite (N, 2) array of gaps and residuals, each gap
    positive (DimensionMismatch or InvalidRange otherwise).
    """
    if samples is None:
        samples = sample_scatter(p, ybar, config)
    else:
        if not (isinstance(samples, np.ndarray) and samples.ndim == 2):
            got = (samples.shape if isinstance(samples, np.ndarray)
                   else type(samples).__name__)
            raise DimensionMismatch(
                f"samples: expected an (N, 2) array, got {got}")
        samples = _as_matrix(samples, 2, "samples")
        if not (samples[:, 0] > 0.0).all():
            raise InvalidRange("samples: gaps must be positive")
    gaps = samples[:, 0]
    residuals = samples[:, 1]
    keep = residuals > 0.0
    gaps, residuals = gaps[keep], residuals[keep]
    if gaps.size < _MIN_BINS:
        raise InsufficientSamples("too few positive-residual samples")

    log_g = np.log10(gaps)
    log_r = np.log10(residuals)
    edges = np.linspace(log_g.min(), log_g.max(), _N_BINS + 1)
    edges[-1] += 1e-12
    minima = []
    for b in range(_N_BINS):
        mask = (log_g >= edges[b]) & (log_g < edges[b + 1])
        if not mask.any():
            continue
        i = np.nonzero(mask)[0][np.argmin(log_r[mask])]
        minima.append((float(log_g[i]), float(log_r[i])))
    if len(minima) < _MIN_BINS:
        raise InsufficientSamples(
            f"only {len(minima)} nonempty bins, need {_MIN_BINS}")

    slope, r_squared = _line_fit(np.array([m[0] for m in minima]),
                                 np.array([m[1] for m in minima]))

    predicted = predict_exponent(inputs) if inputs is not None else None
    verdict = (bool(abs(slope - predicted) <= _VERDICT_TOL)
               if predicted is not None else None)
    return KLFitReport(float(slope), r_squared, int(samples.shape[0]),
                       len(minima), (float(gaps.min()), float(gaps.max())),
                       predicted, verdict)


def lemma61_probe(p: CompositeProblem, xbar, beta: float,
                  config: ScatterConfig = ScatterConfig()) -> float:
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
    centre = LocalModel(p.g, p.f, xbar)
    if not centre.in_domain:
        raise OutOfDomain("xbar is outside the domain of g")
    eigs = np.linalg.eigvalsh(np.asarray(p.f.hess(xbar), dtype=float))
    if eigs.size and eigs.min() < -1e-9:
        raise NotConvex("smooth part has a negative curvature direction")
    base = phi_value(p, xbar)
    if not centre.phi_stationary:
        raise NotAMinimizer("xbar is not stationary, hence not a minimizer")

    sup, comp = support_set(xbar)
    X, gaps, _ = _perturbations(p, xbar, base, config)
    if not (_g_rows(p.g, X) < _INF).all():
        raise OutOfDomain("g_subdiff: point outside the domain")
    grads, _, Z = _min_norm_rows(p, X, np.ones(X.shape))
    V = grads + Z
    # take keeps rows contiguous: a product of strided rows rounds
    # differently
    on, off = (np.take(V, idx, axis=1) ** 2 for idx in (sup, comp))
    dist = np.abs(np.take(X - xbar, comp, axis=1))
    lhs = np.sum(on, axis=1) + (dist[:, None, :] @ off[:, :, None])[:, 0, 0]
    # math.pow row by row: numpy's power differs from it in the last bit
    return float(np.min(lhs / [math.pow(gap, 1.0 + beta) for gap in gaps]))


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
    iteration; f_star is the value the gaps are measured against: the
    f_star given to run_first_order, or else the best visited value.
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
# fewest iterates above the roundoff floor fit_rate classifies
_MIN_RATE_POINTS = 20
_ROUNDOFF_FLOOR = 64 * np.finfo(float).eps
# a projected-gradient step this short relative to 1 + |x| is roundoff
_STEP_ROUNDOFF = 4 * np.finfo(float).eps


def _run_projected_gradient(p: CompositeProblem, x, steps: int) -> list:
    """Projected gradient on phi at the constant step 1/L, L = ||Q||_2,
    the Lipschitz constant of grad f for a SmoothQuadratic f, the only f
    it takes; returns the records.  One domain test of x per step
    decides phi(x), g being an indicator; each step projects from
    scratch, since the dual projection starts at the point it projects.
    The run stops once a step moves x by at most 4 eps (1 + |x|), which
    a bitwise repeat does too: such a step is lost in roundoff, and the
    projection's rounding could keep it jittering there until the
    budget."""
    if p.g.n_pieces:
        raise UnsupportedProblemClass(
            "the original-variable solver needs an indicator g")
    if type(p.f) is not SmoothQuadratic:
        raise UnsupportedProblemClass(
            "the original-variable solver needs a SmoothQuadratic f: its "
            "constant step is 1/L for the Lipschitz constant L of a "
            "quadratic's gradient")
    domain = p.g.domain
    value, grad_f = p.f._value, p.f._grad
    x = _project_rows(domain, x[None])[0]
    L = float(np.linalg.norm(p.f.Q, 2))
    step = 1.0 / L if L > 1e-12 else 1.0
    records = []
    for k in range(steps):
        inside = domain._violations(x[None])[0] <= DEFAULT_TOL
        x_next = _project_rows(domain, (x - step * grad_f(x))[None])[0]
        d = x - x_next
        # phi_value's sum: f(x) plus the indicator's 0.0
        phi = float(value(x)) + 0.0 if inside else _INF
        moved_sq = d @ d
        records.append((k, phi, math.sqrt(moved_sq) / step, step))
        if moved_sq <= (_STEP_ROUNDOFF * (1.0 + math.sqrt(x @ x))) ** 2:
            break
        x = x_next
    return records


def _sphere_retract(v: np.ndarray, radius: float) -> np.ndarray:
    """v scaled onto the sphere of the given radius."""
    norm = math.sqrt(v @ v)
    if norm <= 1e-300:
        raise NumericalFailure("sphere retraction hit the origin")
    return (radius / norm) * v


def _ray_values(f: SmoothQuadratic, y, d, total: float | None):
    """t -> f(x(t)) for x(t) = (y - t d)*(y - t d) = a + t b + t^2 e, with
    a = y*y, b = -2 y*d and e = d*d: x'Qx is the quartic of the Gram
    [a b e]'Q[a b e] and q'x a quadratic.  Given total, x(t) is retracted
    onto the sphere |y|^2 = total, so scaled by s = total / N(t), N(t) =
    1'x(t); else s = 1.  A value or N(t) that is not a finite, normal
    float, overflows included, reads nan: evaluate that t directly."""
    with np.errstate(all="ignore"):
        M = np.array((y * y, -2.0 * y * d, d * d))
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = (M @ f.Q @ M.T).tolist()
        l0, l1, l2 = (M @ f.q).tolist()
        n0, n1, n2 = M.sum(axis=1).tolist() if total else (1.0, 0.0, 0.0)
    p1, p2, p3, r = 2.0 * g01, g11 + 2.0 * g02, 2.0 * g12, f.r

    def value(t: float) -> float:
        norm_sq = (n2 * t + n1) * t + n0
        if not _TINY <= norm_sq < _INF:
            return math.nan
        s = (total or 1.0) / norm_sq
        v = 0.5 * s * s * ((((g22 * t + p3) * t + p2) * t + p1) * t + g00) \
            + s * ((l2 * t + l1) * t + l0) + r
        return v if _TINY <= abs(v) < _INF else math.nan
    return value


def _run_lifted_descent(p: CompositeProblem, y, steps: int) -> list:
    """Armijo backtracking along -grad of h(y) = f(y*y), retracted onto
    the sphere of radius sqrt(total) along its tangent space when g is a
    simplex indicator; returns the records.  h is evaluated once per
    candidate, past t = 1 off _ray_values for a SmoothQuadratic, and x =
    y*y of the accepted candidate feeds the next gradient."""
    sphere = p.g.kind == "simplex"
    if not sphere and p.g.kind != "orthant":
        raise UnsupportedProblemClass(
            "the lifted solver covers orthant and simplex indicators only")
    value, grad_f = _f_kernels(p.f)
    total = p.g.domain.shape.total if sphere else None
    if sphere:
        radius = math.sqrt(total)
        y = _sphere_retract(y, radius)

    def move(t):
        cand = y - t * grad
        cand = _sphere_retract(cand, radius) if sphere else cand
        return cand, cand * cand

    x = y * y
    prev = float(value(x))
    records = []
    for k in range(steps):
        grad = 2.0 * y * grad_f(x)
        if sphere:
            grad = grad - (float(grad @ y) / float(y @ y)) * y
        residual = math.sqrt(grad @ grad)
        if residual == 0.0:
            records.append((k, prev, residual, 0.0))
            break
        descent_sq = residual * residual
        t, ray = 1.0, None
        for _ in range(_ARMIJO_MAX_BACKTRACKS):
            nxt = math.nan if ray is None else ray(t)
            direct = nxt != nxt
            if direct:
                cand, x = move(t)
                nxt = float(value(x))
            if nxt <= prev - _ARMIJO_C1 * t * descent_sq:
                break
            if ray is None and type(p.f) is SmoothQuadratic:
                ray = _ray_values(p.f, y, grad, total)
            t *= _ARMIJO_SHRINK
        else:
            t, cand, nxt, direct = 0.0, y, prev, True
        if not direct:
            cand, x = move(t)
        records.append((k, prev, residual, t))
        if nxt >= prev:
            break
        y, prev = cand, nxt
    return records


def run_first_order(p: CompositeProblem, variant: str, start,
                    steps: int = 10000,
                    f_star: float | None = None) -> SolverTrace:
    """Run a first-order method and log its trace.

    variant "original": projected gradient on phi with the constant
    step 1/L, L = ||Q||_2; f must be a SmoothQuadratic, for which L is
    the Lipschitz constant of grad f, and g an indicator
    (UnsupportedProblemClass otherwise).  It stops once a step moves x
    by at most 4 eps (1 + |x|), lost in roundoff.  variant "lifted":
    descent on f(y*y), plain Armijo backtracking when g is the orthant
    indicator and sphere-retracted backtracking when g is a simplex
    indicator.  A given f_star must be finite (InvalidRange otherwise).
    """
    start = _as_vector(start, p.n, "start")
    if steps < 1:
        raise InvalidRange("steps must be positive")
    if f_star is not None and not math.isfinite(f_star):
        raise InvalidRange(f"f_star must be finite, got {f_star!r}")
    if variant == "original":
        records = _run_projected_gradient(p, start, steps)
    elif variant == "lifted":
        records = _run_lifted_descent(p, start, steps)
    else:
        raise UnsupportedProblemClass(f"unknown variant {variant!r}")
    best = f_star if f_star is not None else min(rec[1] for rec in records)
    return SolverTrace(variant, [(k, max(val - best, 0.0), res, st)
                                 for (k, val, res, st) in records], best)


def fit_rate(trace: SolverTrace) -> RateFit:
    """Classify the tail decay of a trace as linear or sublinear.

    Keeps the iterates before the gap first falls to the roundoff floor
    64 eps (1 + |f_star|), f_star taken as 0 when the trace has none, so
    a plateau of rounding is not fitted.  On the last half of them it
    compares the log-linear fit (gap ~ rho^k) with the log-log fit
    (gap ~ k^-p) by coefficient of determination.
    """
    ks = np.array([rec[0] for rec in trace.iterates], dtype=float)
    gaps = np.array([rec[1] for rec in trace.iterates], dtype=float)
    floor = _ROUNDOFF_FLOOR * (1.0 + abs(trace.f_star or 0.0))
    keep = np.logical_and.accumulate(gaps > floor)
    ks, gaps = ks[keep], gaps[keep]
    if ks.size < _MIN_RATE_POINTS:
        raise InsufficientTrace(f"only {ks.size} iterates above the "
                                f"roundoff floor, need {_MIN_RATE_POINTS}")
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
