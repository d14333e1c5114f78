"""Brute-force reference oracles.

Each oracle recomputes a quantity the fast path obtains by LP/QP duality
or a closed formula, using nothing smarter than enumeration, grids, and
raw difference quotients, or plain calculus where the lift is smooth
(d2_smooth_orthant_lift).  The brute-force ones refuse inputs above small
hard caps (``TooLarge``) because their cost is combinatorial by design.
Ship them anyway: the batteries in ``sqreparam.checks``, which the
self-test command and the acceptance suite run, judge the fast path
against these on seeded random instances.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    InvalidRange,
    NumericalFailure,
    OutOfDomain,
    TooLarge,
    UnsupportedProblemClass,
)
from .polyfunc import (
    CompositeProblem,
    PolyhedralFunction,
    SmoothQuadratic,
    g_subdiff,
)
from .polyhedra import (
    DEFAULT_TOL,
    GeneratorSet,
    LPStatus,
    Polyhedron,
    check_int,
    lp_solve,
    project_onto_polyhedron,
    _as_vector,
)
from .reparam import support_set

_INF = float("inf")
# half-width of the box searched for unbounded coefficients
_BOX_BOUND = 8.0
# geometric grid of difference-quotient step sizes
_T_MIN, _T_MAX, _N_T = 3e-3, 0.3, 10
# random perturbation directions per step size
_N_PERTURB = 16
# quotients beyond this count as +inf
_DIVERGENCE_THRESHOLD = 1e8
_SEED = 0
# fd_second_subderivative's arc grid has 2 * _ARC_RESOLUTION + 1 values
# per support coordinate
_ARC_RESOLUTION = 8


def enumerate_vertices(P: Polyhedron) -> np.ndarray:
    """All vertices of a bounded polyhedron by basis enumeration.

    Solves every n-row subsystem of the stacked constraint rows, keeps
    the feasible solutions, and deduplicates.  Boundedness is checked
    first with 2n support LPs; an unbounded input is refused (TooLarge),
    an infeasible one returns an empty array.
    Caps: n <= 8 and at most 16 rows in total.
    """
    if P.n > 8 or P.m_eq + P.m_ineq > 16:
        raise TooLarge("enumerate_vertices caps at n <= 8 and 16 rows")
    for i in range(P.n):
        for sign in (1.0, -1.0):
            c = np.zeros(P.n)
            c[i] = sign
            out = lp_solve(c, None, None, P.A_eq, P.b_eq, P.A_ineq, P.b_ineq)
            if out.status is LPStatus.UNBOUNDED:
                raise TooLarge(f"unbounded in direction {sign:+.0f}*e_{i}")
            if out.status is LPStatus.INFEASIBLE:
                return np.zeros((0, P.n))

    rows = np.vstack([P.A_eq, P.A_ineq])
    rhs = np.concatenate([P.b_eq, P.b_ineq])
    m_tot = rows.shape[0]
    if m_tot < P.n:
        # bounded and feasible needs at least n rows; nothing to do
        return np.zeros((0, P.n))
    combos = np.array(list(itertools.combinations(range(m_tot), P.n)))
    sub_A = rows[combos]
    sub_b = rhs[combos]
    row_norms = np.linalg.norm(rows, axis=1)
    norm_prod = np.prod(row_norms[combos], axis=1)
    dets = np.abs(np.linalg.det(sub_A))
    mask = dets > 1e-12 * (norm_prod + 1.0)
    if not mask.any():
        return np.zeros((0, P.n))
    candidates = np.linalg.solve(sub_A[mask], sub_b[mask][:, :, None])[:, :, 0]

    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    slack = DEFAULT_TOL * scale
    feas = np.ones(candidates.shape[0], dtype=bool)
    if P.m_ineq:
        feas &= np.all(candidates @ P.A_ineq.T - P.b_ineq <= slack, axis=1)
    if P.m_eq:
        feas &= np.all(np.abs(candidates @ P.A_eq.T - P.b_eq) <= slack,
                       axis=1)
    candidates = candidates[feas]
    vertices: list[np.ndarray] = []
    for cand in candidates:
        if all(np.linalg.norm(cand - v) > 1e-9 * scale for v in vertices):
            vertices.append(cand)
    if not vertices:
        return np.zeros((0, P.n))
    arr = np.array(vertices)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def _simplex_grid(n_parts: int, resolution: int) -> np.ndarray:
    """All nonnegative rational vectors with denominator `resolution`
    summing to one, as rows."""
    if n_parts == 1:
        return np.ones((1, 1))
    combos = itertools.combinations(range(resolution + n_parts - 1),
                                    n_parts - 1)
    out = []
    for cut in combos:
        prev = -1
        parts = []
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + n_parts - 2 - prev)
        out.append(parts)
    return np.array(out, dtype=float) / resolution


def _check_resolution(resolution: int) -> None:
    if resolution < 8:
        raise InvalidRange("grid resolution must be at least 8")


def grid_min_norm(S: GeneratorSet, shift, weights,
                  resolution: int = 8) -> float:
    """Grid search for min ||weights o (shift + z)|| over z in S.

    Convex coefficients range over the simplex grid with `resolution`
    (>= 8) subdivisions, ray coefficients over [0, 8]; line coefficients
    are free so they are eliminated exactly by least squares on each
    grid node.  The result
    is an upper bound on the true minimum that refines monotonically as
    the resolution doubles (the grids are nested).
    Caps: at most 4 points, 3 rays, 2 lines.
    """
    if S.n_points > 4 or S.n_rays > 3 or S.n_lines > 2:
        raise TooLarge("grid_min_norm caps at 4 points, 3 rays, 2 lines")
    _check_resolution(resolution)
    shift = _as_vector(shift, S.n, "shift")
    weights = _as_vector(weights, S.n, "weights")
    R = resolution

    if S.n_lines:
        A = (S.lines * weights[None, :]).T          # n x n_lines
        proj = np.eye(S.n) - A @ np.linalg.pinv(A)
    else:
        proj = np.eye(S.n)

    lam_grid = _simplex_grid(S.n_points, R)
    lam_part = lam_grid @ (S.points * weights[None, :])
    if S.n_rays:
        axis = np.linspace(0.0, _BOX_BOUND, R + 1)
        mu_grid = np.array(list(itertools.product(axis, repeat=S.n_rays)))
        mu_part = mu_grid @ (S.rays * weights[None, :])
    else:
        mu_part = np.zeros((1, S.n))
    base = weights * shift
    cand = base[None, None, :] + lam_part[:, None, :] + mu_part[None, :, :]
    cand = cand.reshape(-1, S.n) @ proj.T
    return float(np.min(np.linalg.norm(cand, axis=1)))


def grid_min_norm_gap_bound(S: GeneratorSet, weights,
                            resolution: int = 8) -> float:
    """Worst-case gap between grid_min_norm and the true minimum,
    assuming the optimal ray coefficients fit inside the box."""
    _check_resolution(resolution)
    weights = _as_vector(weights, S.n, "weights")
    G = S.G * weights[:, None]
    col_norm = float(np.max(np.linalg.norm(G, axis=0), initial=0.0))
    R = resolution
    radius = 2.0 * S.n_points / R + S.n_rays * _BOX_BOUND / (2.0 * R)
    return col_norm * radius


def _arc_directions(ybar: np.ndarray, support: np.ndarray, w: np.ndarray,
                    u_support: np.ndarray, t: float) -> np.ndarray | None:
    """Direction whose squared arc matches x(t) = ybar^2 + t^2 u.

    Off-support coordinates keep w; support coordinates bend so that
    (ybar_i + t d_i)^2 == ybar_i^2 + t^2 u_i exactly.
    """
    d = w.copy()
    if support.size:
        radicand = ybar[support] ** 2 + t * t * u_support
        if np.any(radicand < 0.0):
            return None
        d[support] = (np.sign(ybar[support]) * np.sqrt(radicand)
                      - ybar[support]) / t
    return d


def fd_second_subderivative(H_eval, ybar, lam, w) -> float:
    """Finite-difference estimate of the second subderivative of H at
    ybar for multiplier lam in direction w.

    Scans a geometric grid of step sizes t and, for each t, minimizes
    the raw quotient

        [H(ybar + t d) - H(ybar) - t <lam, d>] / (t^2 / 2)

    over candidate directions d near w: w itself, random shrinking
    perturbations, and square-adapted arcs that keep the squared point
    on a straight line.  Finite sampling can only over-estimate the
    underlying lim inf; +inf is returned when every candidate at the
    smallest t is out of domain or beyond the divergence threshold.
    """
    ybar = np.asarray(ybar, dtype=float).ravel()
    n = ybar.size
    lam = _as_vector(lam, n, "lam")
    w = _as_vector(w, n, "w")
    base = float(H_eval(ybar))
    if not np.isfinite(base):
        raise OutOfDomain("H must be finite at the base point")

    support = support_set(ybar)[0]
    rng = np.random.default_rng(_SEED)
    dirs = rng.standard_normal((_N_PERTURB, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)

    k = support.size
    if k == 0:
        u_list = [np.zeros(0)]
    elif k <= 2:
        axis = np.linspace(-_BOX_BOUND, _BOX_BOUND, 2 * _ARC_RESOLUTION + 1)
        u_list = [np.array(u) for u in itertools.product(axis, repeat=k)]
    else:
        u_list = list(rng.uniform(-_BOX_BOUND, _BOX_BOUND,
                                  size=(4 * _N_PERTURB, k)))

    ts = np.geomspace(_T_MAX, _T_MIN, _N_T)
    per_t = []
    for t in ts:
        cands = [w] + [w + 0.5 * t * d for d in dirs]
        for u in u_list:
            arc = _arc_directions(ybar, support, w, u, t)
            if arc is not None:
                cands.append(arc)
        best = _INF
        for d in cands:
            val = float(H_eval(ybar + t * d))
            if not np.isfinite(val):
                continue
            quot = (val - base - t * float(lam @ d)) / (0.5 * t * t)
            if abs(quot) >= _DIVERGENCE_THRESHOLD:
                continue
            best = min(best, quot)
        per_t.append(best)

    if not np.isfinite(per_t[-1]):
        return _INF
    tail = [q for q in per_t[-3:] if np.isfinite(q)]
    return float(min(tail))


def d2_smooth_orthant_lift(p, y, w) -> float:
    """Closed-form second-order quotient when g is the orthant indicator.

    In that case the lifted objective is the smooth function f(y*y) on
    all of space and the quotient is the plain Hessian quadratic form,
    valid for arbitrary directions w:

        2 <grad f(x), w*w> + 4 <y o w, hess f(x) (y o w)>.
    """
    if p.g.kind != "orthant":
        raise UnsupportedProblemClass(
            "closed form requires g to be the orthant indicator")
    y = _as_vector(y, p.n, "y")
    w = _as_vector(w, p.n, "w")
    x = y * y
    yw = y * w
    return float(2.0 * p.f.grad(x) @ (w * w) + 4.0 * yw @ (p.f.hess(x) @ yw))


# ---------------------------------------------------------------------------
# Seeded instance generators for the validation batteries
# ---------------------------------------------------------------------------


def check_seed(seed: int) -> int:
    """Return seed; raise InvalidRange unless it is a nonnegative integer."""
    return check_int(seed, "seed")


def random_orthant_instance(seed: int):
    """Seeded random smooth-plus-orthant problem and a test point.

    n is 1 to 6, f an arbitrary symmetric quadratic, g the nonnegativity
    indicator.  The returned y carries a sprinkling of exact zeros so
    zero-weight coordinates get exercised.
    """
    rng = np.random.default_rng(check_seed(seed))
    n = int(rng.integers(1, 7))
    M = rng.standard_normal((n, n))
    f = SmoothQuadratic(0.5 * (M + M.T), rng.standard_normal(n),
                        float(rng.standard_normal()))
    g = PolyhedralFunction.orthant_indicator(n)
    y = rng.standard_normal(n)
    y[rng.random(n) < 0.35] = 0.0
    return CompositeProblem(f, g), y


def random_nonsmooth_instance(seed: int):
    """Seeded random piecewise instance sized for the grid oracle.

    n is 1 to 4 and g a max of 1 to 4 affine pieces over up to 6
    extra inequality rows kept feasible around a positive anchor; the
    returned y squares to a feasible point.  Draws are retried until
    the active generator set at y*y fits the grid_min_norm caps.
    """
    rng = np.random.default_rng(check_seed(seed))
    for _ in range(200):
        n = int(rng.integers(1, 5))
        M = rng.standard_normal((n, n))
        f = SmoothQuadratic(0.5 * (M + M.T), rng.standard_normal(n), 0.0)
        k = int(rng.integers(1, 5))
        anchor = rng.uniform(0.2, 1.5, n)
        m = int(rng.integers(0, 7))
        A = rng.standard_normal((m, n))
        b = A @ anchor + rng.uniform(0.1, 1.0, m)
        g = PolyhedralFunction(n, rng.standard_normal((k, n)),
                               rng.standard_normal(k), Polyhedron(n, A, b))
        x = project_onto_polyhedron(g.domain,
                                    anchor + 0.4 * rng.standard_normal(n))
        S = g_subdiff(g, x)
        if S.n_points <= 4 and S.n_rays <= 3 and S.n_lines <= 2:
            signs = rng.integers(0, 2, n) * 2.0 - 1.0
            return CompositeProblem(f, g), signs * np.sqrt(np.maximum(x, 0.0))
    raise NumericalFailure("no grid-compatible draw in 200 attempts")


def random_lp_instance(seed: int):
    """Seeded bounded feasible LP: (objective, polyhedron).

    n is 1 to 6.  Box rows force boundedness, up to 4 extra rows stay
    feasible at a known interior point, and every third seed with
    n >= 2 adds one equality row through that point.  Sized for
    enumerate_vertices.
    """
    rng = np.random.default_rng(check_seed(seed))
    n = int(rng.integers(1, 7))
    lo = rng.uniform(-3.0, -1.0, n)
    hi = rng.uniform(1.0, 3.0, n)
    z0 = rng.uniform(-0.5, 0.5, n)
    rows = [np.eye(n), -np.eye(n)]
    rhs = [hi, -lo]
    with_eq = n >= 2 and seed % 3 == 0
    # keep the total row count inside the vertex enumeration cap
    budget = 16 - 2 * n - (1 if with_eq else 0)
    m = int(rng.integers(0, min(4, budget) + 1))
    if m:
        A = rng.standard_normal((m, n))
        rows.append(A)
        rhs.append(A @ z0 + rng.uniform(0.05, 1.0, m))
    A_eq = b_eq = None
    if with_eq:
        a = rng.standard_normal(n)
        A_eq = a[None, :]
        b_eq = np.array([float(a @ z0)])
    P = Polyhedron(n, np.vstack(rows), np.concatenate(rhs), A_eq, b_eq)
    return rng.standard_normal(n), P


def make_stationary_orthant_instance(seed: int, spurious: bool = False):
    """Orthant composite engineered to be lifted stationary at y.

    The gradient at xbar = y*y vanishes on the support and is clearly
    positive off it, making xbar stationary for the original problem.
    With spurious=True one off-support gradient entry is clearly
    negative instead: y stays lifted stationary, xbar stops being
    stationary, and the negative second-order direction is the
    matching coordinate axis.  Returns (problem, y, xbar).
    """
    rng = np.random.default_rng(check_seed(seed))
    n = int(rng.integers(2, 7))
    support = rng.random(n) < 0.5
    if spurious and support.all():
        support[int(rng.integers(0, n))] = False
    xbar = np.where(support, rng.uniform(0.3, 2.0, n), 0.0)
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n
    t = np.where(support, 0.0, rng.uniform(0.1, 1.0, n))
    if spurious:
        off = np.nonzero(~support)[0]
        t[off[int(rng.integers(0, off.size))]] = -float(rng.uniform(0.2, 1.0))
    f = SmoothQuadratic(Q, t - Q @ xbar, 0.0)
    g = PolyhedralFunction.orthant_indicator(n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    return CompositeProblem(f, g), signs * np.sqrt(xbar), xbar


def make_stationary_pieces_instance(seed: int):
    """Two-piece composite stationary at a strictly positive xbar.

    Both pieces tie at xbar and the smooth gradient is minus a strict
    convex combination of the piece gradients, so xbar is stationary
    with full support (the second-order slice is trivial).
    Returns (problem, y, xbar).
    """
    rng = np.random.default_rng(check_seed(seed))
    n = int(rng.integers(1, 5))
    xbar = rng.uniform(0.3, 1.5, n)
    A = rng.standard_normal((2, n))
    vals = A @ xbar
    b = np.array([0.0, float(vals[0] - vals[1])])
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n
    theta = float(rng.uniform(0.1, 0.9))
    f = SmoothQuadratic(Q, -(theta * A[0] + (1.0 - theta) * A[1]) - Q @ xbar,
                        0.0)
    g = PolyhedralFunction(n, A, b)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    return CompositeProblem(f, g), signs * np.sqrt(xbar), xbar
