"""Composite problems phi(x) = f(x) + g(x) with polyhedral g.

g is a finite max of affine pieces plus the indicator of a polyhedral
domain that always lives inside the nonnegative orthant: the constructor
appends the rows -x_i <= 0 (deduplicated against user rows) so the
orthant geometry is explicit in every normal cone.  f is smooth; the
serialized format is a quadratic but any object with value/grad/hess
methods works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InfeasiblePolyhedron,
                     ValidationError)
from .polyhedra import (
    DEFAULT_TOL,
    GeneratorSet,
    Polyhedron,
    feasible_point,
    min_norm_weighted,
    _as_matrix,
    _as_vector,
    _check_dimension,
    _min_norm_normal_cone,
    _orthant_rows,
    _owned,
    _rhs,
)

DEFAULT_TOL_ACTIVE = 1e-8

_INF = float("inf")


@dataclass(frozen=True, eq=False)
class SmoothQuadratic:
    """f(x) = 0.5 x'Qx + q'x + r with Q symmetrized at construction."""

    Q: np.ndarray
    q: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise DimensionMismatch("Q must be finite")
        Q = 0.5 * (Q + Q.T)
        q = _as_vector(self.q, Q.shape[0], "q").copy()
        if isinstance(self.r, (bool, np.bool_)):
            raise DimensionMismatch(f"r must be a real number, got {self.r!r}")
        if not np.isfinite(self.r):
            raise DimensionMismatch("r must be finite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", float(self.r))
        Q.setflags(write=False)
        q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def value(self, x) -> float:
        return self._value(_as_vector(x, self.n, "x"))

    def grad(self, x) -> np.ndarray:
        return self._grad(_as_vector(x, self.n, "x"))

    def _value(self, x) -> float:
        """value at a float vector x of length n, without value's check of
        x.  An inf or NaN entry of x makes the value non-finite, and a
        non-finite value runs that check, so such an x raises here too."""
        value = float(0.5 * x @ self.Q @ x + self.q @ x + self.r)
        if not math.isfinite(value):
            _as_vector(x, self.n, "x")
        return value

    def _grad(self, x) -> np.ndarray:
        """grad at a float vector x of length n, without grad's check."""
        return self.Q @ x + self.q

    def _values(self, X) -> np.ndarray:
        """_value at each row of a float (N, n) array X, bit for bit: each
        row goes through the same 1 x n matmuls as _value's vector (the
        X @ Q, einsum and row-sum forms round differently).  A non-finite
        value runs _value's check on its row."""
        values = ((0.5 * X)[:, None, :] @ self.Q @ X[:, :, None]
                  + X[:, None, :] @ self.q[:, None])[:, 0, 0] + self.r
        for x in X[~np.isfinite(values)]:
            _as_vector(x, self.n, "x")
        return values

    def _grads(self, X) -> np.ndarray:
        """_grad at each row of a float (N, n) array X, bit for bit."""
        return (self.Q @ X[:, :, None])[:, :, 0] + self.q

    def hess(self, x) -> np.ndarray:
        _as_vector(x, self.n, "x")
        return self.Q


def _f_kernels(f):
    """(value, grad) of f for the loops that evaluate it per step: the
    unchecked kernels of a SmoothQuadratic, the public methods of any
    other f."""
    if type(f) is SmoothQuadratic:
        return f._value, f._grad
    return f.value, f.grad


def _f_stack_kernels(f):
    """(values, grads) of f over the rows of a float (N, n) array, for a
    scatter's sample stack: the stack kernels of a SmoothQuadratic, which
    return what its unchecked kernels return row by row, and a loop over
    the public methods of any other f (values as floats, grads as a list
    for the caller to validate)."""
    if type(f) is SmoothQuadratic:
        return f._values, f._grads
    return (lambda X: np.array([float(f.value(x)) for x in X], dtype=float),
            lambda X: [f.grad(x) for x in X])


@dataclass(frozen=True, eq=False)
class PolyhedralFunction:
    """g(x) = max_j (<a_j, x> + b_j) + indicator(domain).

    An empty piece list means the plain indicator (value 0 on the
    domain).  The stored domain is the user polyhedron intersected with
    the nonnegative orthant; construction fails on an empty domain.

    kind, decided on first use from the shape of the stored domain, is
    "orthant" (the indicator of the nonnegative orthant), "box" (of any
    other box), "simplex" (of {x >= 0, sum x = c} with c > 0) or
    "general" (pieces, or any other domain).
    """

    n: int
    pieces_A: np.ndarray = None
    pieces_b: np.ndarray = None
    domain: Polyhedron = None

    def __post_init__(self):
        _check_dimension(self.n)
        A = _owned(_as_matrix(self.pieces_A, self.n, "pieces_A"))
        b = _rhs(self.pieces_b, A, "pieces_b").copy()
        dom = self.domain if self.domain is not None else Polyhedron(self.n)
        if dom.n != self.n:
            raise DimensionMismatch("domain dimension does not match n")
        orthant = _orthant_rows(dom.A_ineq, dom.b_ineq)
        present = np.zeros(self.n, dtype=bool)
        present[np.argmin(dom.A_ineq[orthant], axis=1)] = True
        missing = np.flatnonzero(~present)
        if missing.size:
            extra = np.zeros((missing.size, self.n))
            extra[np.arange(missing.size), missing] = -1.0
            dom = Polyhedron(self.n,
                             A_ineq=np.vstack([dom.A_ineq, extra]),
                             b_ineq=np.concatenate([dom.b_ineq,
                                                    np.zeros(missing.size)]),
                             A_eq=dom.A_eq, b_eq=dom.b_eq)
        feasible_point(dom)          # raises InfeasiblePolyhedron when empty
        object.__setattr__(self, "pieces_A", A)
        object.__setattr__(self, "pieces_b", b)
        object.__setattr__(self, "domain", dom)
        A.setflags(write=False)
        b.setflags(write=False)

    @property
    def n_pieces(self) -> int:
        return self.pieces_A.shape[0]

    @cached_property
    def kind(self) -> str:
        if self.n_pieces:
            return "general"
        shape = self.domain.shape
        if shape.kind == "box" and np.all(shape.lower == 0.0) \
                and np.all(shape.upper == _INF):
            return "orthant"
        return shape.kind

    @staticmethod
    def indicator(domain: Polyhedron) -> "PolyhedralFunction":
        return PolyhedralFunction(domain.n, domain=domain)

    @staticmethod
    def orthant_indicator(n: int) -> "PolyhedralFunction":
        return PolyhedralFunction.indicator(Polyhedron.nonneg_orthant(n))

    @staticmethod
    def simplex_indicator(n: int) -> "PolyhedralFunction":
        return PolyhedralFunction.indicator(Polyhedron.standard_simplex(n))

    @staticmethod
    def max_of_pieces(pieces, domain: Polyhedron) -> "PolyhedralFunction":
        """pieces is a sequence of (a, b) affine pairs."""
        A = np.array([np.asarray(a, float).ravel() for a, _ in pieces])
        b = np.array([float(bb) for _, bb in pieces])
        return PolyhedralFunction(domain.n, A, b, domain)


def g_eval(g: PolyhedralFunction, x) -> float:
    """Extended-real value of g at x (+inf outside the domain, that is
    beyond DEFAULT_TOL)."""
    return float(_g_rows(g, _as_vector(x, g.n, "x")[None])[0])


def _g_rows(g: PolyhedralFunction, X: np.ndarray) -> np.ndarray:
    """g_eval at each row of the unvalidated (N, n) array X."""
    values = np.zeros(X.shape[0]) if g.n_pieces == 0 else np.max(
        (g.pieces_A @ X[:, :, None])[:, :, 0] + g.pieces_b, axis=1)
    return np.where(g.domain._violations(X) <= DEFAULT_TOL, values, _INF)


@dataclass(frozen=True)
class ActivityPattern:
    """Which pieces and inequality rows are active at a point.

    degenerate is set when some activity gap lands in the band
    (DEFAULT_TOL_ACTIVE, 10 * DEFAULT_TOL_ACTIVE]: the pattern would
    change under a slightly looser threshold, so downstream certificates
    deserve suspicion.
    """

    active_pieces: tuple
    active_rows: tuple
    degenerate: bool


def activity_pattern(g: PolyhedralFunction, x) -> ActivityPattern:
    x = _as_vector(x, g.n, "x")
    degenerate = False
    active_pieces = []
    if g.n_pieces:
        vals = g.pieces_A @ x + g.pieces_b
        gaps = float(np.max(vals)) - vals
        active_pieces = np.nonzero(gaps <= DEFAULT_TOL_ACTIVE)[0].tolist()
        degenerate |= bool(((gaps > DEFAULT_TOL_ACTIVE)
                            & (gaps <= 10.0 * DEFAULT_TOL_ACTIVE)).any())
    slacks = g.domain.b_ineq - g.domain.A_ineq @ x
    active_rows = np.nonzero(slacks <= DEFAULT_TOL_ACTIVE)[0].tolist()
    degenerate |= bool(((slacks > DEFAULT_TOL_ACTIVE)
                        & (slacks <= 10.0 * DEFAULT_TOL_ACTIVE)).any())
    return ActivityPattern(tuple(active_pieces), tuple(active_rows),
                           degenerate)


class LocalModel:
    """The local variational model of phi = f + g at a point x.

    x and in_domain (x in dom g, up to tol) are built at construction.
    Built on first use, once each: the activity pattern; from it
    S = subdiff g(x) = conv(active piece gradients, or the origin when
    there are no pieces) + cone(active inequality normals) + span(equality
    normals), exact when x and the pattern are, and raising outside the
    domain (S.G is its generator matrix); grad f(x) (f is None when only
    g is modelled); and the phi min-norm pair (dist(0, subdiff phi(x)),
    argmin z in S of ||grad + z||), read by phi_residual and
    phi_stationary.
    A residual is stationary when it is at most tol * scale, with scale
    = 1 + ||grad f(x)||: phi_stationary here and Phi_stationary on the
    lift (reparam.LiftedPoint) are the only verdicts built by that rule.
    When g.kind is not "general", the min-norm pairs (this one and the
    lifted one) are closed forms read off the active rows, so S is built
    only for the LPs and membership checks that use it.
    """

    def __init__(self, g: PolyhedralFunction, f, x, tol: float = DEFAULT_TOL):
        self._build(g, f, _as_vector(x, g.n, "x"), tol)

    def _build(self, g, f, x, tol):
        """Set up from a validated x (LiftedPoint passes y*y unchecked);
        tol must be finite and nonnegative (InvalidRange from contains
        otherwise)."""
        self.g, self.f, self.tol, self.x = g, f, tol, x
        self.in_domain = g.domain.contains(x, tol)

    # the refusal of S and the min-norm pairs outside dom g
    _OUTSIDE = "g_subdiff: point outside the domain"

    @cached_property
    def pattern(self) -> ActivityPattern:
        return activity_pattern(self.g, self.x)

    @cached_property
    def S(self) -> GeneratorSet:
        if not self.in_domain:
            raise ValidationError(self._OUTSIDE)
        g, pattern = self.g, self.pattern
        points = g.pieces_A[list(pattern.active_pieces)] if g.n_pieces \
            else np.zeros((1, g.n))
        rays = g.domain.A_ineq[list(pattern.active_rows)]
        return GeneratorSet(g.n, points, rays, g.domain.A_eq)

    @cached_property
    def grad(self) -> np.ndarray:
        return self.f.grad(self.x)

    def _min_norm(self, weights) -> tuple[float, np.ndarray]:
        """min ||weights o (grad + z)|| over z in S, and its minimizer:
        in closed form from the active rows when g.kind is not "general",
        without building S; by min_norm_weighted on S, one dual
        projection, otherwise."""
        g = self.g
        if g.kind != "general":
            if not self.in_domain:
                raise ValidationError(self._OUTSIDE)
            active = np.zeros((1, g.domain.m_ineq), dtype=bool)
            active[0, list(self.pattern.active_rows)] = True
            values, z = _min_norm_normal_cone(
                g.domain, active, _as_vector(self.grad, g.n, "shift")[None],
                weights[None])
            return float(values[0]), z[0]
        return min_norm_weighted(self.S, self.grad, weights)

    @cached_property
    def phi_min_norm(self) -> tuple[float, np.ndarray]:
        return self._min_norm(np.ones(self.g.n))

    @property
    def phi_residual(self) -> float:
        return self.phi_min_norm[0]

    @cached_property
    def scale(self) -> float:
        """1 + ||grad f(x)||, the scale of the stationarity rule."""
        return 1.0 + float(np.linalg.norm(self.grad))

    def _stationary(self, residual: float) -> bool:
        """The stationarity rule: residual <= tol * scale."""
        return residual <= self.tol * self.scale

    @cached_property
    def phi_stationary(self) -> bool:
        return self._stationary(self.phi_residual)


def _min_norm_rows(p: CompositeProblem, X: np.ndarray, weights):
    """grad f and LocalModel._min_norm at each row of the unvalidated
    (N, n) array X, whose rows the caller has tested for the domain of g.
    When p.g.kind is not "general": the activity test of activity_pattern
    over the stack, grad f by _f_stack_kernels in one call, and the closed
    form over the stack;
    one LocalModel per row otherwise.  Returns (grads, values, minimizers)."""
    if p.g.kind == "general":
        models = [LocalModel(p.g, p.f, x) for x in X]
        values, Z = zip(*(pt._min_norm(w) for pt, w in zip(models, weights)))
        return np.array([pt.grad for pt in models]), np.array(values), \
            np.array(Z)
    dom = p.g.domain
    active = dom.b_ineq - (dom.A_ineq @ X[:, :, None])[:, :, 0] \
        <= DEFAULT_TOL_ACTIVE
    grads = _as_matrix(_f_stack_kernels(p.f)[1](X), p.n, "shift")
    return (grads,) + _min_norm_normal_cone(dom, active, grads, weights)


def g_subdiff(g: PolyhedralFunction, x) -> GeneratorSet:
    """Subdifferential of g at x as a generator set (LocalModel.S)."""
    return LocalModel(g, None, x).S


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """phi(x) = f(x) + g(x); f needs value/grad/hess, g is polyhedral."""

    f: object
    g: PolyhedralFunction

    def __post_init__(self):
        for attr in ("value", "grad", "hess"):
            if not callable(getattr(self.f, attr, None)):
                raise DimensionMismatch(f"f must provide a callable {attr}()")
        fn = getattr(self.f, "n", None)
        if fn is not None and fn != self.g.n:
            raise DimensionMismatch(
                f"f dimension {fn} does not match g dimension {self.g.n}")

    @property
    def n(self) -> int:
        return self.g.n


def phi_value(p: CompositeProblem, x) -> float:
    gx = g_eval(p.g, x)
    if not np.isfinite(gx):
        return _INF
    return float(p.f.value(x)) + gx


def phi_residual(p: CompositeProblem, x) -> float:
    """dist(0, subdiff phi(x)); raises ValidationError outside dom g."""
    return LocalModel(p.g, p.f, x).phi_residual
