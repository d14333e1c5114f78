"""Dense LP/QP kernel and operations on small polyhedral sets.

Two representations are used throughout the package:

* ``Polyhedron``: half-space form ``A_ineq z <= b_ineq``, ``A_eq z = b_eq``.
* ``GeneratorSet``: generator form ``conv(points) + cone(rays) + span(lines)``.

Everything here is deterministic.  The LP solver is a dense two-phase
bounded-variable simplex with Bland's smallest-index rule (identical
input gives an identical optimal witness): inequality rows with one
nonzero are read as bounds, and a variable with two finite bounds
reaches its upper one by a bound flip, not through an extra row
(Dantzig 1955; Bland 1977).  Its condensed tableau holds only the
nonbasic columns, each mapped to its variable, and the reduced costs
as its last row, so one rank-1 update per pivot moves both; Bland's
rule compares variable indices, one argmin per choice.  Phase 1 starts
from the slack basis, with artificials only on the rows that need one.
Projection onto a general polyhedron is the dual active-set method of
Goldfarb & Idnani (1983) with the identity Hessian: it starts at the
point itself, adds the most violated row and drops a row whose
multiplier reaches 0, on an orthonormal factor of its working rows, so
it needs no feasible start.  The weighted min-norm over a generator set
is a primal active-set QP with smallest-index tie breaking that solves
each working-set KKT system by LU, and by least squares only when that
system is singular.
On a box or simplex, projection and the weighted min-norm over a normal
cone are closed forms instead (clipping, and a sort/threshold rule).
Problems are desk scale (tens of variables, tens of rows); the
implementation favours exactness and reproducibility over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasiblePolyhedron,
    InvalidRange,
    NumericalFailure,
)

DEFAULT_TOL = 1e-9

# a difference this small relative to its scale is roundoff: steps tied
# in the primal QP's ratio test, and violations the dual projection leaves
_ROUNDOFF = 1e-13

_INF = float("inf")


def _as_matrix(rows, n: int, name: str) -> np.ndarray:
    """Coerce to a float matrix with n columns; empty input gives (0, n)."""
    if rows is None:
        return np.zeros((0, n))
    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return np.zeros((0, n))
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch(f"{name}: expected shape (*, {n}), got {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{name}: entries must be finite")
    return a


def _owned(a: np.ndarray) -> np.ndarray:
    """a itself when it owns its data, else a copy of the same layout: a
    view (a slice, a reshaped row) would follow edits of its base."""
    return a if a.base is None else a.copy(order="K")


def _as_vector(v, m: int, name: str, allow_inf: bool = False) -> np.ndarray:
    if v is None:
        v = np.zeros(m)
    a = np.asarray(v, dtype=float).ravel()
    if a.size != m:
        raise DimensionMismatch(f"{name}: expected length {m}, got {a.size}")
    if not allow_inf and not np.isfinite(a).all():
        raise DimensionMismatch(f"{name}: entries must be finite")
    if allow_inf and np.isnan(a).any():
        raise DimensionMismatch(f"{name}: NaN entries are not allowed")
    return a


def check_int(value, name: str, least: int = 0) -> int:
    """Return value; raise InvalidRange unless it is an integer (a bool is
    not one) of at least least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidRange(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise InvalidRange(f"{name} must be {bound}, got {value!r}")
    return value


def check_tol(value, name: str = "tol") -> None:
    """Raise InvalidRange unless value is a finite, nonnegative tolerance."""
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidRange(
            f"{name}: must be finite and nonnegative, got {value!r}")


def _tightest_bounds(A, b, lower, upper):
    """lower <= z <= upper tightened by the rows of A z <= b, each with
    one nonzero.  The tightest row wins, so duplicated and scaled rows
    are fine.  Bounds crossed by at most DEFAULT_TOL (1 + |lower|) are a
    fixed coordinate split by rounding and become upper = lower; a wider
    crossing is left for the caller to read as an empty set."""
    col = np.argmax(A != 0.0, axis=1)
    coef = A[np.arange(A.shape[0]), col]
    bound = b / coef + 0.0          # + 0.0 turns the -0.0 of 0 / -c into 0.0
    lower, upper = lower + 0.0, upper + 0.0
    np.maximum.at(lower, col[coef < 0.0], bound[coef < 0.0])
    np.minimum.at(upper, col[coef > 0.0], bound[coef > 0.0])
    fixed = (lower > upper) & (lower - upper
                               <= DEFAULT_TOL * (1.0 + np.abs(lower)))
    upper[fixed] = lower[fixed]
    return lower, upper


def _orthant_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows that are a positive multiple of some -e_i with
    zero right-hand side, i.e. a row -c x_i <= 0 with c > 0."""
    return ((np.count_nonzero(A, axis=1) == 1) & (b == 0.0)
            & (A.min(axis=1) < 0.0))


# ---------------------------------------------------------------------------
# Half-space representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Shape:
    """The closed-form shape of a polyhedron, read off its rows.

    kind "box": {lower <= z <= upper}, entries possibly infinite (the
    orthant is lower = 0, upper = +inf); lower > upper somewhere means
    the box is empty.  kind "simplex": {z >= 0, sum z = total} with
    total > 0.  kind "general": any other polyhedron.
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    total: float | None = None


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Half-space form {z : A_ineq z <= b_ineq, A_eq z = b_eq}.

    shape, decided on first use, is what project_onto_polyhedron
    dispatches on.
    """

    n: int
    A_ineq: np.ndarray = None
    b_ineq: np.ndarray = None
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DimensionMismatch(f"n must be a positive integer, got {self.n!r}")
        # the vectors are copied, and so is a matrix that is a view: it
        # would follow the caller's edits
        A_ineq = _owned(_as_matrix(self.A_ineq, self.n, "A_ineq"))
        A_eq = _owned(_as_matrix(self.A_eq, self.n, "A_eq"))
        b_ineq = _as_vector(self.b_ineq, A_ineq.shape[0], "b_ineq").copy()
        b_eq = _as_vector(self.b_eq, A_eq.shape[0], "b_eq").copy()
        for name, val in (("A_ineq", A_ineq), ("b_ineq", b_ineq),
                          ("A_eq", A_eq), ("b_eq", b_eq)):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    @property
    def m_ineq(self) -> int:
        return self.A_ineq.shape[0]

    @property
    def m_eq(self) -> int:
        return self.A_eq.shape[0]

    def max_violation(self, z) -> float:
        """Largest constraint violation at z (0 when strictly inside)."""
        return float(self._violations(_as_vector(z, self.n, "z")[None])[0])

    def _violations(self, Z: np.ndarray) -> np.ndarray:
        """max_violation at each row of the unvalidated (N, n) array Z."""
        worst = np.zeros(Z.shape[0])
        if self.m_ineq:
            worst = np.fmax(worst, np.max(
                (self.A_ineq @ Z[:, :, None])[:, :, 0] - self.b_ineq, axis=1))
        if self.m_eq:
            worst = np.fmax(worst, np.max(np.abs(
                (self.A_eq @ Z[:, :, None])[:, :, 0] - self.b_eq), axis=1))
        return worst

    def contains(self, z, tol: float = DEFAULT_TOL) -> bool:
        return self.max_violation(z) <= tol

    @cached_property
    def shape(self) -> Shape:
        """Box when there are no equality rows and every inequality row
        has exactly one nonzero (bounds by _tightest_bounds); simplex
        when every inequality row is -c e_i <= 0 with c > 0, every
        coordinate has one, and the one equality row has equal nonzero
        entries a and b_eq / a > 0; general otherwise."""
        A, b = self.A_ineq, self.b_ineq
        if not np.all(np.count_nonzero(A, axis=1) == 1):
            return Shape("general")
        if self.m_eq == 0:
            lower, upper = _tightest_bounds(A, b, np.full(self.n, -_INF),
                                            np.full(self.n, _INF))
            lower.setflags(write=False)
            upper.setflags(write=False)
            return Shape("box", lower=lower, upper=upper)
        row = self.A_eq[0]
        if self.m_eq == 1 and _orthant_rows(A, b).all() \
                and np.count_nonzero(A, axis=0).all() \
                and row[0] != 0.0 and np.all(row == row[0]):
            total = float(self.b_eq[0] / row[0])
            if total > 0.0:
                return Shape("simplex", total=total)
        return Shape("general")

    @cached_property
    def _unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b): the equality rows, then the inequality rows, each row
        and its right-hand side divided by the row's length (a zero row
        is kept as it is); the rows the dual projection works on."""
        A = np.concatenate([self.A_eq, self.A_ineq])
        norms = np.linalg.norm(A, axis=1)
        norms[norms == 0.0] = 1.0
        A /= norms[:, None]
        b = np.concatenate([self.b_eq, self.b_ineq]) / norms
        A.setflags(write=False)
        b.setflags(write=False)
        return A, b

    @staticmethod
    def nonneg_orthant(n: int) -> "Polyhedron":
        return Polyhedron(n, A_ineq=-np.eye(n), b_ineq=np.zeros(n))

    @staticmethod
    def box(lower, upper) -> "Polyhedron":
        lower = np.asarray(lower, float).ravel()
        upper = np.asarray(upper, float).ravel()
        n = lower.size
        eye = np.eye(n)
        return Polyhedron(n, A_ineq=np.vstack([eye, -eye]),
                          b_ineq=np.concatenate([upper, -lower]))

    @staticmethod
    def standard_simplex(n: int) -> "Polyhedron":
        return Polyhedron(n, A_ineq=-np.eye(n), b_ineq=np.zeros(n),
                          A_eq=np.ones((1, n)), b_eq=np.ones(1))


# ---------------------------------------------------------------------------
# Generator representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Generator form conv(points) + cone(rays) + span(lines), never empty.

    Construction copies the generators into one read-only (K, n) stack,
    points, then rays, then lines; ``points``, ``rays`` and ``lines`` are
    row views of it and G, the (n, K) generator matrix whose columns the
    coefficients (lam, mu, nu) of every LP and QP over the set weigh, is
    its transpose.  A set without points raises DimensionMismatch.  Zero
    rays and zero lines are dropped: they contribute nothing and a zero
    ray would let relative-interior tests pad coefficients for free.
    Zero *points* are kept; conv({0, p}) genuinely differs from conv({p}).
    """

    n: int
    points: np.ndarray = None
    rays: np.ndarray = None
    lines: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DimensionMismatch(f"n must be a positive integer, got {self.n!r}")
        points = _as_matrix(self.points, self.n, "points")
        if not points.shape[0]:
            raise DimensionMismatch("a generator set needs at least one point")
        rays = _as_matrix(self.rays, self.n, "rays")
        rays = rays[rays.any(axis=1)]
        lines = _as_matrix(self.lines, self.n, "lines")
        stack = np.concatenate([points, rays, lines[lines.any(axis=1)]])
        stack.setflags(write=False)
        i, j = points.shape[0], points.shape[0] + rays.shape[0]
        for name, val in (("points", stack[:i]), ("rays", stack[i:j]),
                          ("lines", stack[j:]), ("G", stack.T)):
            object.__setattr__(self, name, val)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_rays(self) -> int:
        return self.rays.shape[0]

    @property
    def n_lines(self) -> int:
        return self.lines.shape[0]

    def combine(self, coeffs) -> np.ndarray:
        """Evaluate the combination given stacked (lam, mu, nu) coefficients."""
        return self.G @ _as_vector(coeffs, self.G.shape[1], "coeffs")

    def translate(self, v) -> "GeneratorSet":
        v = _as_vector(v, self.n, "v")
        return GeneratorSet(self.n, self.points + v, self.rays, self.lines)


# ---------------------------------------------------------------------------
# Linear programming: dense two-phase bounded-variable simplex, Bland's rule
# ---------------------------------------------------------------------------


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPOutcome:
    """Result of a maximization LP.

    value is the extended-real optimum: -inf when infeasible, +inf when
    unbounded.  witness is an optimal point (present iff OPTIMAL).
    dual_value is read from the final basis so callers can check the
    duality gap.  pivots counts the basis changes of both phases.
    """

    status: LPStatus
    value: float
    witness: np.ndarray | None = None
    dual_value: float | None = None
    pivots: int = 0

    @property
    def duality_gap(self) -> float | None:
        if self.dual_value is None:
            return None
        return abs(self.value - self.dual_value)


def _damp(rhs: np.ndarray) -> None:
    """Zero the roundoff just below 0 in a rhs, so later ratio tests stay
    well posed."""
    rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0


def _pivot(T: np.ndarray, var: np.ndarray, basis: np.ndarray, row: int,
           col: int, work: np.ndarray) -> None:
    """Pivot the condensed tableau on (row, col): var[col] enters, and the
    leaving basis[row] takes column col with its full-tableau entries.
    Every other row, the reduced-cost row included, loses its col entry
    times the scaled pivot row; work is a buffer of T's shape."""
    inv = 1.0 / T[row, col]
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    np.multiply.outer(column, T[row], out=work)
    T -= work
    T[:, col] = 0.0 - column * inv
    T[row, col] = inv
    var[col], basis[row] = basis[row], var[col]
    _damp(T[:, -1])


def _run_simplex(T: np.ndarray, var: np.ndarray, basis: np.ndarray,
                 cost: np.ndarray, cap: np.ndarray, flipped: np.ndarray,
                 tol: float, max_iter: int) -> tuple[str, int]:
    """Minimize cost @ x over 0 <= x <= cap on the condensed tableau in
    place; returns the status and the number of pivots.

    T holds only the nonbasic columns, column k that of variable var[k],
    and the rhs; basis[p] is the variable basic in row p.  Its last row
    holds the reduced costs, which this function fills in, so each
    pivot's one rank-1 update keeps them current too (the rhs entry of
    that row is never read).  flipped[j] marks x_j replaced by cap[j] -
    x_j (column, reduced cost included, negated), so every nonbasic
    variable sits at 0, a flipped one at its upper bound.  Bland's rule
    by variable index, not column position, both for entering (smallest
    index with negative reduced cost) and leaving (smallest variable
    index among ratio ties, the entering variable's own bound flip, made
    without a pivot, included), which rules out cycling.  Each choice is
    one argmin over the indices, with the sentinel cap.size, one past the
    largest variable index, where a candidate is ruled out.  The ratio
    test reads a basic value below 0 as 0, so no ratio is negative.  A
    column that no row and no bound blocks is priced afresh from cost
    before "unbounded" is returned, since its carried reduced cost may
    be rounding drift.
    """
    m = T.shape[0] - 1
    full = np.where(flipped, -cost, cost)
    reduced = T[m, :-1]
    reduced[:] = full[var]
    for p in range(m):
        if full[basis[p]] != 0.0:
            reduced -= full[basis[p]] * T[p, :-1]
    if not var.size:
        return "optimal", 0
    sentinel = cap.size
    rhs = T[:m, -1]
    cap_b = cap[basis]
    ratios, room = np.empty(m), np.empty(m)
    down, up = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    work = np.empty_like(T)
    pivots = 0
    for _ in range(max_iter):
        entering = np.where(reduced < -tol, var, sentinel)
        k = int(entering.argmin())
        enter = int(entering[k])
        if enter == sentinel:
            return "optimal", pivots
        col = T[:m, k]
        np.greater(col, tol, out=down)
        np.less(col, -tol, out=up)
        # a basic value that rounding left just below 0 blocks at 0: a
        # negative ratio would step the pivot backwards
        ratios.fill(_INF)
        np.maximum(rhs, 0.0, out=room)
        np.divide(room, col, out=ratios, where=down)
        # a basic variable that grows stops at its own upper bound:
        # max(cap_b - rhs, 0) / -col, which is exactly -(room / col)
        np.subtract(cap_b, rhs, out=room)
        np.maximum(room, 0.0, out=room)
        np.divide(room, col, out=room, where=up)
        np.negative(room, out=ratios, where=up)
        best = min(ratios.min(initial=_INF), cap[enter])
        if best == _INF:
            # nothing blocks: price the column afresh before believing
            # it, since its carried reduced cost may be drift alone
            full = np.where(flipped, -cost, cost)
            reduced[k] = full[enter] - full[basis] @ col
            if reduced[k] < -tol:
                return "unbounded", pivots
            continue
        band = best + 1e-9 * (1.0 + abs(best))
        leave, first = -1, sentinel
        if m:
            ties = np.where(ratios <= band, basis, sentinel)
            leave = int(ties.argmin())
            first = int(ties[leave])
        if cap[enter] <= band and enter < first:
            # the entering variable reaches its other bound first
            T[:, -1] -= cap[enter] * T[:, k]
            _damp(T[:, -1])
            T[:, k] *= -1.0
            flipped[enter] = not flipped[enter]
            continue
        if col[leave] < 0.0:
            # it leaves at its upper bound: complement it while basic
            j = basis[leave]
            T[leave] *= -1.0
            T[leave, -1] += cap[j]
            flipped[j] = not flipped[j]
        _pivot(T, var, basis, leave, k, work)
        cap_b[leave] = cap[enter]
        pivots += 1
    raise NumericalFailure("simplex iteration budget exceeded")


def lp_solve(c, lower=None, upper=None, A_eq=None, b_eq=None,
             A_ineq=None, b_ineq=None) -> LPOutcome:
    """Maximize <c, z> over bounds and linear rows.

    lower/upper are per-variable bounds and may contain -inf/+inf (the
    default is fully free); a lower bound of +inf or an upper bound of
    -inf is an empty set.  Rows with one nonzero become bounds by
    _tightest_bounds (the rule of Polyhedron.shape, at DEFAULT_TOL); bounds
    crossed beyond it, or a zero row with b < 0, are infeasible.  The
    simplex keeps x = z - lower in [0, upper - lower] by bound flips,
    not by rows.  Phase 1 starts from the slack basis: only equality
    rows and rows with a negative right-hand side get an artificial.
    Returns an LPOutcome; the witness is the deterministic optimal vertex
    that Bland's rule reaches from the slack basis.
    """
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if n == 0 or not np.isfinite(c).all():
        raise DimensionMismatch("objective must be a nonempty finite vector")
    lower = (np.full(n, -_INF) if lower is None
             else _as_vector(lower, n, "lower", allow_inf=True))
    upper = (np.full(n, _INF) if upper is None
             else _as_vector(upper, n, "upper", allow_inf=True))
    A_eq = _as_matrix(A_eq, n, "A_eq")
    b_eq = _as_vector(b_eq, A_eq.shape[0], "b_eq")
    A_ineq = _as_matrix(A_ineq, n, "A_ineq")
    b_ineq = _as_vector(b_ineq, A_ineq.shape[0], "b_ineq")
    if (lower == _INF).any() or (upper == -_INF).any():
        return LPOutcome(LPStatus.INFEASIBLE, -_INF)
    A_in, b_in = A_ineq, b_ineq
    nnz = np.count_nonzero(A_ineq, axis=1)
    if (nnz <= 1).any() or (lower > upper).any():
        lower, upper = _tightest_bounds(A_ineq[nnz == 1], b_ineq[nnz == 1],
                                        lower, upper)
        if np.any(lower > upper) or np.any(b_ineq[nnz == 0] < 0.0):
            return LPOutcome(LPStatus.INFEASIBLE, -_INF)
        A_in, b_in = A_ineq[nnz > 1], b_ineq[nnz > 1]

    # Substitute every variable by a nonnegative one:
    #   finite lower  -> z = l + x, 0 <= x <= u - l
    #   upper only    -> z = u - x
    #   free          -> z = x_plus - x_minus
    cols = []          # (original index, sign, upper bound) per column
    z0 = np.zeros(n)
    for i, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
        if math.isfinite(lo):
            z0[i] = lo
            cols.append((i, 1.0, hi - lo))
        elif math.isfinite(hi):
            z0[i] = hi
            cols.append((i, -1.0, _INF))
        else:
            cols += [(i, 1.0, _INF), (i, -1.0, _INF)]
    K = len(cols)
    M = np.zeros((n, K))
    for j, (i, sign, _) in enumerate(cols):
        M[i, j] = sign

    m_eq, n_slack = A_eq.shape[0], A_in.shape[0]
    N = K + n_slack
    A_std = np.zeros((m_eq + n_slack, N))
    A_std[:m_eq, :K] = A_eq @ M
    A_std[m_eq:, :K] = A_in @ M
    A_std[m_eq:, K:] = np.eye(n_slack)
    b_std = np.concatenate([b_eq - A_eq @ z0, b_in - A_in @ z0])

    flip = b_std < 0.0
    A_std[flip] *= -1.0
    b_std[flip] *= -1.0
    m = A_std.shape[0]
    cap = np.concatenate([[u for *_, u in cols], np.full(n_slack + m, _INF)])
    flipped = np.zeros(N + m, dtype=bool)

    scale = 1.0 + float(np.abs(b_std).max(initial=0.0))
    pivot_tol = 1e-10
    budget = 2000 + 50 * (m + N)

    # Phase 1 starts from the slack basis: an inequality row that was
    # not sign-flipped keeps its slack basic, and only the equality and
    # flipped rows get an artificial, N + p for row p.  T holds the
    # nonbasic structurals and slacks; its last row holds the reduced
    # costs.
    slack_rows = m_eq + np.flatnonzero(~flip[m_eq:])
    basis = np.arange(N, N + m)
    basis[slack_rows] = K - m_eq + slack_rows
    var = np.concatenate([np.arange(K), K + np.flatnonzero(flip[m_eq:])])
    T = np.zeros((m + 1, var.size + 1))
    T[:m, :-1] = A_std[:, var]
    T[:m, -1] = b_std
    pivots = 0
    if slack_rows.size < m:
        cost1 = np.concatenate([np.zeros(N), (basis >= N) * 1.0])
        status, pivots = _run_simplex(T, var, basis, cost1, cap, flipped,
                                      pivot_tol, budget)
        if status != "optimal":
            raise NumericalFailure("phase-1 simplex reported unbounded")
    infeas = sum(T[p, -1] for p in range(m) if basis[p] >= N)
    if infeas > DEFAULT_TOL * scale:
        return LPOutcome(LPStatus.INFEASIBLE, -_INF, pivots=pivots)
    # Drive artificials out of the basis; rows that resist are redundant.
    keep = np.ones(m + 1, dtype=bool)
    work = np.empty_like(T)
    for p in range(m):
        if basis[p] < N:
            continue
        entering = np.nonzero((var < N) & (np.abs(T[p, :-1]) > 1e-9))[0]
        if entering.size:
            _pivot(T, var, basis, p, int(entering[np.argmin(var[entering])]),
                   work)
            pivots += 1
        else:
            keep[p] = False
    if not keep.all():
        rows = keep[:m]
        T, basis, A_std, b_std = T[keep], basis[rows], A_std[rows], b_std[rows]
    T = T[:, np.append(var < N, True)]
    var = var[var < N]
    cap, flipped = cap[:N], flipped[:N]

    cost2 = np.concatenate([-(M.T @ c), np.zeros(n_slack)])
    status, more = _run_simplex(T, var, basis, cost2, cap, flipped,
                                pivot_tol, budget)
    pivots += more
    if status == "unbounded":
        return LPOutcome(LPStatus.UNBOUNDED, _INF, pivots=pivots)

    x_std = np.zeros(N)
    x_std[basis] = T[:-1, -1]
    x_std = np.where(flipped, cap - x_std, x_std)
    z = M @ x_std[:K] + z0
    value = float(c @ z)

    # The dual read from the final basis certifies the optimum; a
    # variable at its upper bound adds cap times its reduced cost.
    B_T, c_B = A_std[:, basis].T, cost2[basis]
    try:
        y = np.linalg.solve(B_T, c_B)
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(B_T, c_B, rcond=None)[0]
    dual_std = float(b_std @ y
                     + cap[flipped] @ (cost2 - A_std.T @ y)[flipped])
    dual_value = float(c @ z0) - dual_std
    if abs(value - dual_value) > 1e-6 * (1.0 + abs(value)):
        raise NumericalFailure(
            f"duality gap {abs(value - dual_value):.3e} out of tolerance")

    worst = max((A_ineq @ z - b_ineq).max(initial=0.0),
                np.abs(A_eq @ z - b_eq).max(initial=0.0),
                (lower - z).max(), (z - upper).max())
    if worst > 1e-7 * scale:
        raise NumericalFailure(f"optimal witness infeasible by {worst:.3e}")

    return LPOutcome(LPStatus.OPTIMAL, value, z, dual_value, pivots)


# ---------------------------------------------------------------------------
# Quadratic programming: primal active-set method, and the dual one for
# projections
# ---------------------------------------------------------------------------


def _kkt_solve(H, c, act, b_act) -> np.ndarray:
    """Solve [[H, act'], [act, 0]] [x; eta] = [-c; b_act] for (x, eta).

    The system is solved by LU, and by least squares when LU raises or
    misses the right-hand side by more than 1e-9 (1 + max|rhs|), as with
    dependent rows in act.  Every caller's system is consistent, so any
    solution that passes serves, also for a Gram H singular on the null
    space of act.
    """
    n, k = c.size, act.shape[0]
    rhs = np.concatenate([-c, b_act])
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = act.T
    kkt[n:, :n] = act
    try:
        sol = np.linalg.solve(kkt, rhs)
        if abs(kkt @ sol - rhs).max() <= 1e-9 * (1.0 + abs(rhs).max()):
            return sol
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0]


def _qp_active_set(H, c, A_eq, b_eq, A_ineq, b_ineq, x0) -> np.ndarray:
    """Minimize 0.5 x'Hx + c'x with H PSD from a feasible start.

    Primal active-set method (Nocedal & Wright 2006, ch. 16); equality
    rows stay in every working set.  Each iteration solves the working
    set's KKT system by _kkt_solve, then drops the smallest-index row
    whose multiplier is below -1e-9 (1 + max|c|), or steps toward the
    subproblem minimizer until a row blocks, the smallest index among
    steps tied within _ROUNDOFF.  An unblocked step keeps the working
    set, and its solve with it.  It serves min_norm_weighted, whose Gram
    H may be singular; a projection takes _dual_projection instead.
    """
    n, m, m_eq = c.size, A_ineq.shape[0], A_eq.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    slack0 = b_ineq - A_ineq @ x
    if slack0.min(initial=0.0) < -1e-7 or (
            m_eq and abs(A_eq @ x - b_eq).max() > 1e-7):
        raise NumericalFailure("active-set QP needs a feasible start")
    working = np.flatnonzero(slack0 <= 1e-11).tolist()
    floor = -1e-9 * (1.0 + float(abs(c).max(initial=0.0)))
    row_floor = _ROUNDOFF * (1.0 + abs(A_ineq).max(axis=1, initial=0.0))
    unbounded = np.full(m, _INF)

    sol = None
    for _ in range(100 + 20 * (n + m)):
        if sol is None:
            act, b_act = A_ineq[working], b_ineq[working]
            sol = _kkt_solve(H, c, np.vstack([A_eq, act]) if m_eq else act,
                             np.concatenate([b_eq, b_act]) if m_eq else b_act)
        target = sol[:n]
        direction = target - x
        if abs(direction).max(initial=0.0) \
                <= 1e-11 * (1.0 + abs(x).max(initial=0.0)):
            violated = np.flatnonzero(sol[n + m_eq:] < floor)
            if not violated.size:
                return target
            working.pop(int(violated[0]))
            sol = None
            continue
        # longest feasible step toward the subproblem solution
        advance = A_ineq @ direction
        room = b_ineq - A_ineq @ x
        np.maximum(room, 0.0, out=room)
        candidate = advance > row_floor
        candidate[working] = False
        steps = np.divide(room, advance, out=unbounded.copy(),
                          where=candidate)
        alpha, blocking = 1.0, -1
        # a row blocks only with a step short of alpha = 1
        for i in np.flatnonzero(steps < 1.0 - _ROUNDOFF).tolist():
            if steps[i] < alpha - _ROUNDOFF:
                alpha, blocking = steps[i], i
        if blocking < 0:
            x = target          # the working set stands, and so does sol
        else:
            x = x + alpha * direction
            working = sorted(working + [blocking])
            sol = None
    raise NumericalFailure("active-set QP iteration budget exceeded")


def _orthogonal_part(Q: np.ndarray, Rinv: np.ndarray,
                     a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, r) for a row a and the working rows N' = Q R: d, the part of a
    orthogonal to the columns of Q (Gram-Schmidt run twice, so d stays
    orthogonal to them in floating point), and r = Rinv Q'a, the
    coefficients of the rest of a on the working rows."""
    if not Q.shape[1]:
        return a, np.empty(0)
    w = Q.T @ a
    d = a - Q @ w
    again = Q.T @ d
    return d - Q @ again, Rinv @ (w + again)


def _dual_projection(A: np.ndarray, b: np.ndarray, m_eq: int,
                     x: np.ndarray) -> np.ndarray:
    """Projection of x onto {A[:m_eq] z = b[:m_eq], A[m_eq:] z <= b[m_eq:]},
    every row of A of unit length or zero, by the dual active-set method
    of Goldfarb & Idnani (1983) with the identity Hessian.

    It starts at z = x, the unconstrained minimizer, so it needs no
    feasible start, and keeps the working rows N as N' = Q R by Q and
    Rinv, the inverse of R.  The equality rows enter first: z moves onto
    each along the part of it orthogonal to the rows before it, unless
    the row already holds to _ROUNDOFF (1 + |z|); a row that depends on
    the rows before it (that part no longer than DEFAULT_TOL) is only
    checked.  Then, while an inequality row outside the working set is
    violated by more than _ROUNDOFF (1 + |z|), the most violated one, p,
    the smallest index among ties, is added.  With (d, r) =
    _orthogonal_part of a_p, the step z - t d keeps every working row
    tight and moves each working multiplier u_j to u_j - t r_j, while p
    gathers t.  t is the full step that makes p tight, unless the
    multiplier of some working inequality row with r_j > DEFAULT_TOL
    would cross 0 first: that row (the smallest index among ties) leaves
    at that t and p is tried again.  A p that depends on the working
    rows moves multipliers only, and when no working row can leave, the
    polyhedron is empty.  Each added row extends the factors by one
    column; each dropped one refactors them by QR.
    """
    n, m = x.size, A.shape[0]
    z = x.copy()
    Q, Rinv, u = np.empty((n, n)), np.zeros((n, n)), np.zeros(n)
    working = []        # rows of A in factor order, the equality rows first

    def add(row, d, r, gathered):
        k, rho = len(working), math.sqrt(d @ d)
        Q[:, k] = d / rho
        Rinv[:k, k] = -r / rho
        Rinv[k, :k] = 0.0
        Rinv[k, k] = 1.0 / rho
        u[k] = gathered
        working.append(row)

    for e in range(m_eq):
        k = len(working)
        d, r = _orthogonal_part(Q[:, :k], Rinv[:k, :k], A[e])
        gap, dd = A[e] @ z - b[e], d @ d
        off = abs(gap) > _ROUNDOFF * (1.0 + math.sqrt(z @ z))
        if dd <= DEFAULT_TOL ** 2:
            if off:
                raise InfeasiblePolyhedron("polyhedron has no feasible point")
            continue
        if off:
            z -= gap / dd * d
        add(e, d, r, 0.0)

    k_eq = len(working)
    outside = np.ones(m, dtype=bool)
    outside[:m_eq] = False
    p, gathered = -1, 0.0
    for _ in range(100 + 20 * (n + m)):
        k = len(working)
        if p < 0:
            viol = np.where(outside, A @ z - b, -_INF)
            p = int(viol.argmax())
            if viol[p] <= _ROUNDOFF * (1.0 + math.sqrt(z @ z)):
                return z
            gathered = 0.0
        d, r = _orthogonal_part(Q[:, :k], Rinv[:k, :k], A[p])
        dd = d @ d
        # the full step, none for a p that depends on the working rows
        t = full = (A[p] @ z - b[p]) / dd if dd > DEFAULT_TOL ** 2 else _INF
        if k > k_eq:
            r_in = r[k_eq:]
            ratios = np.full(k - k_eq, _INF)
            np.divide(np.maximum(u[k_eq:k], 0.0), r_in, out=ratios,
                      where=r_in > DEFAULT_TOL)
            t = min(ratios.min(), full)
        if t == _INF:
            raise InfeasiblePolyhedron("polyhedron has no feasible point")
        if full < _INF:
            z -= t * d
        u[:k] -= t * r
        gathered += t
        if t == full:
            add(p, d, r, gathered)
            outside[p] = False
            p = -1
            continue
        # the working inequality row whose multiplier reached 0 leaves
        ties = k_eq + np.flatnonzero(ratios == t)
        j = int(ties[np.argmin([working[i] for i in ties])])
        outside[working.pop(j)] = True
        u[j:k - 1] = u[j + 1:k]
        if k > 1:
            q, R = np.linalg.qr(A[working].T)
            Q[:, :k - 1] = q
            Rinv[:k - 1, :k - 1] = np.linalg.inv(R)
    raise NumericalFailure("dual projection iteration budget exceeded")


def _min_norm_coefficients(S: GeneratorSet, shift: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """Coefficients (lam, mu, nu) minimizing ||weights*(shift + combo)||.

    Rays and lines that the weights map to zero move nothing, but their
    zero columns would make every KKT system singular; a unit diagonal
    entry of H pins each such coefficient to 0, decoupled from the rest.
    Warm start: the equality-constrained least-squares minimizer is
    accepted outright whenever it already satisfies the sign
    constraints; otherwise the active-set method runs from the uniform
    convex combination.
    """
    G = S.G
    n_pts, n_signed = S.n_points, S.n_points + S.n_rays
    K = G.shape[1]
    WG = G * weights[:, None]
    H = WG.T @ WG
    # rays and lines are nonzero, so only a zero weight zeroes a column
    if not weights.all():
        dead = ~WG.any(axis=0)
        dead[:n_pts] = False
        H[dead, dead] = 1.0
    c = WG.T @ (weights * shift)
    A_eq = np.zeros((1, K))
    A_eq[0, :n_pts] = 1.0
    b_eq = np.ones(1)

    theta = _kkt_solve(H, c, A_eq, b_eq)[:K]
    if theta[:n_signed].min() < -1e-12:
        start = np.zeros(K)
        start[:n_pts] = 1.0 / n_pts
        theta = _qp_active_set(H, c, A_eq, b_eq, -np.eye(n_signed, K),
                               np.zeros(n_signed), start)
    theta[:n_signed] = np.maximum(theta[:n_signed], 0.0)
    return theta


def min_norm_weighted(S: GeneratorSet, shift,
                      weights) -> tuple[float, np.ndarray]:
    """Minimize ||weights o (shift + z)|| over z in S.

    Returns (value, minimizer).  Coordinates with weight zero do not
    affect the value.  S is never empty (GeneratorSet holds at least one
    point), so the minimum exists.
    """
    shift = _as_vector(shift, S.n, "shift")
    weights = _as_vector(weights, S.n, "weights")
    theta = _min_norm_coefficients(S, shift, weights)
    z = S.combine(theta)
    value = float(np.linalg.norm(weights * (shift + z)))
    return value, z


def vrep_membership(S: GeneratorSet, z, tol: float = DEFAULT_TOL) -> bool:
    """True iff dist(z, S) <= tol."""
    z = _as_vector(z, S.n, "z")
    value, _ = min_norm_weighted(S, -z, np.ones(S.n))
    return value <= tol


def vrep_ri_membership(S: GeneratorSet, z) -> bool:
    """True iff z lies in the relative interior of S.

    Decided by the LP  max t  s.t.  z is a generator combination whose
    point and ray coefficients all stay >= t.  For a finite generator
    list (redundant generators included) the relative interior is
    exactly the set of combinations with strictly positive coefficients
    on every listed point and ray, so ri membership is optimal t > 0;
    the threshold used is DEFAULT_TOL.
    """
    z = _as_vector(z, S.n, "z")
    K, n_bounded = S.G.shape[1], S.n_points + S.n_rays

    nvar = K + 1                       # coefficients plus t
    c = np.zeros(nvar)
    c[-1] = 1.0
    lower = np.concatenate([np.zeros(n_bounded),
                            np.full(nvar - n_bounded, -_INF)])
    A_eq = np.zeros((S.n + 1, nvar))
    A_eq[:S.n, :K] = S.G
    A_eq[S.n, :S.n_points] = 1.0
    b_eq = np.concatenate([z, [1.0]])
    A_in = np.zeros((n_bounded, nvar))
    A_in[:, -1] = 1.0
    A_in[:, :n_bounded] -= np.eye(n_bounded)
    b_in = np.zeros(n_bounded)

    out = lp_solve(c, lower, None, A_eq, b_eq, A_in, b_in)
    if out.status is LPStatus.INFEASIBLE:
        return False
    if out.status is LPStatus.UNBOUNDED:
        raise NumericalFailure("relative-interior LP cannot be unbounded")
    return out.value > DEFAULT_TOL


def vrep_support(S: GeneratorSet, w) -> float:
    """Support value sup{<w, s> : s in S}; +inf on escaping directions."""
    w = _as_vector(w, S.n, "w")
    w_norm = float(np.linalg.norm(w))
    for r in S.rays:
        if float(r @ w) > 1e-10 * (1.0 + np.linalg.norm(r) * w_norm):
            return _INF
    for l in S.lines:
        if abs(float(l @ w)) > 1e-10 * (1.0 + np.linalg.norm(l) * w_norm):
            return _INF
    return float(np.max(S.points @ w))


def feasible_point(P: Polyhedron) -> np.ndarray:
    """Any feasible point of P; raises InfeasiblePolyhedron when empty.

    Read off P.shape for a box (0 clipped into its bounds, empty when
    some lower > upper) and a simplex (its barycentre); any other
    polyhedron solves a feasibility LP."""
    shape = P.shape
    if shape.kind == "box":
        if (shape.lower > shape.upper).any():
            raise InfeasiblePolyhedron("polyhedron has no feasible point")
        return np.minimum(np.maximum(0.0, shape.lower), shape.upper)
    if shape.kind == "simplex":
        return np.full(P.n, shape.total / P.n)
    out = lp_solve(np.zeros(P.n), None, None, P.A_eq, P.b_eq,
                   P.A_ineq, P.b_ineq)
    if out.status is not LPStatus.OPTIMAL:
        raise InfeasiblePolyhedron("polyhedron has no feasible point")
    return out.witness


def _project_simplex(X: np.ndarray, total: float) -> np.ndarray:
    """Projection of each row of the (N, n) array X onto {z >= 0, sum z =
    total} by the sort/threshold rule (Duchi et al. 2008; Condat 2016):
    z = max(x - theta, 0), where theta comes from the largest k whose
    k-th largest entry u_k still exceeds (u_1 + ... + u_k - total) / k."""
    U = np.sort(X, axis=1)[:, ::-1]
    excess = np.cumsum(U, axis=1) - total
    above = U > excess / np.arange(1, X.shape[1] + 1)
    rho = X.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
    theta = excess[np.arange(X.shape[0]), rho] / (rho + 1)
    return np.maximum(X - theta[:, None], 0.0)


def _min_norm_normal_cone(P: Polyhedron, active, shift,
                         weights) -> tuple[np.ndarray, np.ndarray]:
    """min_norm_weighted over z in cone(active rows of P.A_ineq) +
    span(P.A_eq), the normal cone of a box or simplex P, in closed form,
    at each row of a stack: active is an (N, m_ineq) mask of the rows
    active at a point, shift and weights are (N, n) arrays, all
    unvalidated.  Returns the (N,) values and the (N, n) minimizers.

    Box: an active row c e_i allows z_i >= 0 if c > 0 and z_i <= 0 if
    c < 0 (both: a fixed coordinate), so z_i clips -shift_i into that
    range, or is 0 at weight zero.  Simplex: z = t 1 - mu with mu_i =
    max(shift_i + t, 0) on the coordinates of active rows, 0 elsewhere;
    t minimizes a convex piecewise quadratic whose breakpoints -shift_i
    are scanned in sorted order, as in _project_simplex (t = 0 when
    every weight is 0).  The value is unique, and z too when every
    weight is positive.
    """
    if P.shape.kind == "box":
        lo = np.where(active @ (P.A_ineq < 0.0), -_INF, 0.0)
        hi = np.where(active @ (P.A_ineq > 0.0), _INF, 0.0)
        Z = np.where(weights != 0.0,
                     np.minimum(np.maximum(-shift, lo), hi), 0.0)
    else:
        bound = active @ (P.A_ineq != 0.0)
        w2 = weights * weights
        w2f = np.where(bound, 0.0, w2)
        # the active coordinates first, by increasing shift
        order = np.argsort(np.where(bound, shift, _INF), axis=1, kind="stable")
        rows = np.arange(shift.shape[0])
        s, on = shift[rows[:, None], order], bound[rows[:, None], order]
        w2a = np.where(on, w2[rows[:, None], order], 0.0)
        # half the slope in t is slope t + offset between the k-th and
        # (k+1)-th largest breakpoints, where only the free coordinates
        # (slope_free, offset_free) and the k smallest active shifts (the
        # running sums slopes, offsets) leave a residual
        slope_free = w2f.sum(axis=1)
        offset_free = (w2f[:, None, :] @ shift[:, :, None])[:, 0, 0]
        slopes = np.cumsum(w2a, axis=1)
        offsets = np.cumsum(w2a * s, axis=1)
        k = np.count_nonzero(on & (offset_free[:, None] + offsets - (
            slope_free[:, None] + slopes) * s > 0.0), axis=1)
        last = np.maximum(k - 1, 0)
        slope = slope_free + np.where(k > 0, slopes[rows, last], 0.0)
        offset = offset_free + np.where(k > 0, offsets[rows, last], 0.0)
        # where the slope is 0, flat from the largest breakpoint on
        t = np.where(slope > 0.0, -offset / np.where(slope > 0.0, slope, 1.0),
                     np.where(w2.any(axis=1), -s[:, 0], 0.0))[:, None]
        Z = t - np.where(bound, np.maximum(shift + t, 0.0), 0.0)
    V = weights * (shift + Z)
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0]), Z


def _project_rows(P: Polyhedron, X: np.ndarray) -> np.ndarray:
    """project_onto_polyhedron at each row of the unvalidated (N, n) array
    X: a closed form over the whole stack, or the dual projection row by
    row on P._unit_rows."""
    shape = P.shape
    if shape.kind == "box":
        if (shape.lower > shape.upper).any():
            raise InfeasiblePolyhedron("polyhedron has no feasible point")
        return np.minimum(np.maximum(X, shape.lower), shape.upper)
    if shape.kind == "simplex":
        return _project_simplex(X, shape.total)
    A, b = P._unit_rows
    return np.array([_dual_projection(A, b, P.m_eq, x) for x in X])


def project_onto_polyhedron(P: Polyhedron, x, *, start=None) -> np.ndarray:
    """Euclidean projection of x onto P.

    Boxes (the orthant included) and simplices, as P.shape reads them
    off the rows, are projected in closed form: clipping, and the
    sort/threshold rule.  Any other polyhedron goes through the dual
    active-set method (_dual_projection), which starts at x itself and
    adds only the rows that bind, so it needs no feasible start; an
    empty P raises InfeasiblePolyhedron.  ``start`` is checked for its
    length and otherwise unused.
    """
    x = _as_vector(x, P.n, "x")
    if start is not None:
        _as_vector(start, P.n, "start")
    return _project_rows(P, x[None])[0]
