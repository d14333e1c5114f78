"""Squared-variable lifting Phi(y) = f(y*y) + g(y*y).

Squaring the variables turns a problem that is nonnegative by
constraint into one that is nonnegative by construction.  The price is
spurious first-order points: y = 0 always kills the gradient of the
smooth part, whether or not x = 0 means anything for the original
problem.  The residual computed here quantifies lifted stationarity
exactly:

    dist(0, subdiff Phi(y)) = 2 * min { ||y o (grad f(y*y) + z)|| :
                                        z in subdiff g(y*y) }

so the right-hand side is a weighted minimum-norm problem over the
polyhedral subdifferential, with weights |y|.  Coordinates where y
vanishes are free of charge, which is exactly how spurious points
arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .polyfunc import (
    CompositeProblem,
    LocalModel,
    PolyhedralFunction,
    phi_value,
)
from .polyhedra import DEFAULT_TOL, check_tol, _as_vector

DEFAULT_TOL_SUPPORT = 1e-8


def support_set(y, tol_support: float = DEFAULT_TOL_SUPPORT):
    """Indices with |y_i| > tol_support and their complement.

    The threshold is strict: a coordinate exactly at tol_support counts
    as off-support.  Near-threshold magnitudes make every downstream
    certificate fragile; reports carry min |y_i| over the support so
    callers can see how much margin they have.  y must have finite
    entries (DimensionMismatch).
    """
    check_tol(tol_support, "tol_support")
    y = np.asarray(y, dtype=float).ravel()
    y = _as_vector(y, y.size, "y")
    mask = np.abs(y) > tol_support
    idx = np.arange(y.size)
    return idx[mask], idx[~mask]


class LiftedPoint(LocalModel):
    """The local model of the lift at y, read by the first- and
    second-order certificates alike: the model of phi at x = y*y
    (LocalModel) plus y, the support split and the lifted residual.

    y, x = y*y and in_domain (x in dom g) are built at construction.
    Built on first use, once each: the support sup (tuple: support) and
    its complement comp, which the lifted residual alone does not need;
    the lifted min-norm pair lifted_min_norm (min ||y o (grad + z)|| over
    z in S, and its minimizer, which second_order takes as the
    multiplier), read by lifted_residual, and its verdict
    Phi_stationary, by the rule of LocalModel; and everything LocalModel
    builds, with S raising ValidationError outside the domain.  y must be a point, not a model,
    with finite y*y (DimensionMismatch), and tol and tol_support finite
    and nonnegative (InvalidRange).
    """

    def __init__(self, g: PolyhedralFunction, f, y,
                 tol_support: float = DEFAULT_TOL_SUPPORT,
                 tol: float = DEFAULT_TOL):
        if isinstance(y, LocalModel):
            raise DimensionMismatch("y: expected a point, got a model")
        check_tol(tol_support, "tol_support")
        self.tol_support = tol_support
        self.y = _as_vector(y, g.n, "y")
        self._build(g, f, _square(self.y), tol)

    _OUTSIDE = "y*y is outside the domain of g"

    @cached_property
    def _support_split(self):
        return support_set(self.y, self.tol_support)

    @property
    def sup(self) -> np.ndarray:
        return self._support_split[0]

    @property
    def comp(self) -> np.ndarray:
        return self._support_split[1]

    @cached_property
    def support(self) -> tuple:
        return tuple(self.sup.tolist())

    @cached_property
    def lifted_min_norm(self) -> tuple[float, np.ndarray]:
        """min ||y o (grad + z)|| over z in S, and its minimizer."""
        return self._min_norm(np.abs(self.y))

    @property
    def lifted_residual(self) -> float:
        """dist(0, subdiff Phi(y)) via the weighted minimum-norm identity."""
        return 2.0 * self.lifted_min_norm[0]

    @cached_property
    def Phi_stationary(self) -> bool:
        return self._stationary(self.lifted_residual)


def _square(y: np.ndarray) -> np.ndarray:
    """y*y of a finite y, refused (DimensionMismatch) where it overflows."""
    with np.errstate(over="ignore"):
        x = y * y
    if not np.isfinite(x).all():
        raise DimensionMismatch("y: y*y must be finite")
    return x


def _lift(g: PolyhedralFunction, f, y) -> LiftedPoint:
    """The model a certificate reads at y: built with the default
    tolerances from a point, or y itself when it is a model of the same
    problem, with the tolerances it was built with."""
    if not isinstance(y, LiftedPoint):
        return LiftedPoint(g, f, y)
    if y.g is not g or (f is not None and y.f is not f):
        raise DimensionMismatch("y is the lifted point of another problem")
    return y


def lift_point(p: CompositeProblem, y,
               tol_support: float = DEFAULT_TOL_SUPPORT,
               tol: float = DEFAULT_TOL) -> LiftedPoint:
    """The local model of the lift at the point y, with these
    tolerances.  Every certificate function of reparam and second_order
    takes it in place of y and judges by its tolerances, so certificates
    at one point share one model."""
    return LiftedPoint(p.g, p.f, y, tol_support, tol)


def lift_eval(p: CompositeProblem, y) -> float:
    """Phi(y) = phi(y*y), +inf when y*y leaves the domain of g; y*y must
    be finite (DimensionMismatch)."""
    return phi_value(p, _square(_as_vector(y, p.n, "y")))


def lifted_residual(p: CompositeProblem, y) -> float:
    """dist(0, subdiff Phi(y)) via the weighted minimum-norm identity."""
    return _lift(p.g, p.f, y).lifted_residual


@dataclass(frozen=True)
class StationarityReport:
    """First-order classification of a lifted candidate y.

    stationary_for_Phi and stationary_for_phi are the model's verdicts
    Phi_stationary and phi_stationary on the lifted residual and on the
    original residual at x = y*y.  A spurious candidate is
    stationary for Phi but not for phi.  min_support_abs is the margin
    min |y_i| over the support (None when the support is empty); when
    it is close to tol_support the classification is fragile.
    """

    in_domain: bool
    support: tuple
    lifted_residual: float | None
    phi_residual: float | None
    stationary_for_Phi: bool
    stationary_for_phi: bool
    min_support_abs: float | None
    degenerate_activity: bool


def classify_first_order(p: CompositeProblem, y) -> StationarityReport:
    """Classify y, or the model y, at its tolerance; out-of-domain points
    are reported, not raised."""
    pt = _lift(p.g, p.f, y)
    if not pt.in_domain:
        return StationarityReport(False, pt.support, None, None,
                                  False, False, None, False)
    min_abs = float(np.min(np.abs(pt.y[pt.sup]))) if pt.support else None
    return StationarityReport(
        True, pt.support, pt.lifted_residual, pt.phi_residual,
        pt.Phi_stationary, pt.phi_stationary, min_abs, pt.pattern.degenerate)
