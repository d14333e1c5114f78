"""Second-order tests for lifted candidates.

The correspondence of the paper: y is a stationary point of Phi with a
nonnegative second subderivative on S_I, the directions supported off
the support of y, exactly when x = y*y is stationary for phi.
correspondence_check answers each side once, from the local model at y
(reparam.LiftedPoint), and fails loudly when the two disagree.

Route one reads the lifted residual.  At a lifted stationary point the
minimizer v of its min-norm problem, LiftedPoint.lifted_min_norm[1], is
the multiplier: a subgradient of g at y*y that matches -grad f on the
support up to lifted_residual / (2 |y_i|); lam = 2 y o v is the
multiplier of the lifted problem.  The second subderivative of the lifted
polyhedral term on S_I then reduces to a support-function value over a
slice of the subdifferential:

    d2(w) = 2 * sup { <w*w restricted off-support, p off-support> :
                      p in subdiff g(y*y), p = v on the support }

which is a plain LP over the generator coefficients.  One LP, the dual
of that sup, finds the unit off-support direction of least quotient;
second order is nonnegative on S_I when that quotient is at least
-tol * scale, and the direction is reported as negative_direction
otherwise.

Route two reads the phi residual: first-order stationarity of y*y for
the original problem.

The model builds the subdifferential, the gradient and both min-norm
pairs once per point, however many directions are tried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistencyDetected,
    ValidationError,
)
from .polyfunc import CompositeProblem, PolyhedralFunction
from .polyhedra import LPStatus, lp_solve, _as_vector
from .reparam import LiftedPoint, _lift

_INF = float("inf")


def _slice_rows(pt: LiftedPoint, anchor):
    """Rows E theta = e of the slice of subdiff g(y*y): the simplex row
    on the convex block of theta, then G theta = anchor on the support."""
    S = pt.S
    E = np.vstack([np.zeros(S.G.shape[1]), S.G[pt.sup]])
    E[0, :S.n_points] = 1.0
    return E, np.concatenate([np.ones(1), anchor])


def d2_lifted_g(g: PolyhedralFunction, ybar, v, w) -> float:
    """Second subderivative of the lifted polyhedral term.

    Evaluated at ybar with multiplier 2 ybar o v, in a direction w that
    is forced into the off-support subspace by zeroing its support
    coordinates.  Computed as 2 * sup of a linear functional over the
    subdifferential slice {p : p = v on the support}, an LP over theta
    >= 0 on the convex and conic blocks; an unbounded LP means +inf, an
    infeasible one means the supplied v is not a valid slice anchor
    (ValidationError; the certificates pass the lifted multiplier
    lifted_min_norm[1], which lies in the subdifferential, so only a
    direct call can supply one).
    """
    pt = _lift(g, None, ybar)
    v = _as_vector(v, g.n, "v")
    w = _as_vector(w, g.n, "w")
    weights = np.zeros(g.n)
    weights[pt.comp] = w[pt.comp] ** 2
    S = pt.S
    E, e = _slice_rows(pt, v[pt.sup])
    lower = np.concatenate([np.zeros(S.n_points + S.n_rays),
                            np.full(S.n_lines, -_INF)])
    out = lp_solve(S.G.T @ weights, lower, None, E, e)
    if out.status is LPStatus.UNBOUNDED:
        return _INF
    if out.status is LPStatus.INFEASIBLE:
        raise ValidationError(
            "no subgradient matches v on the support of ybar")
    return 2.0 * out.value


def d2_lifted_objective_on_SI(p: CompositeProblem, y, w) -> float:
    """Second-order quotient of the full lifted objective on the
    off-support subspace: d2_lifted_g at the lifted multiplier
    lifted_min_norm[1] plus 2 <grad f, w*w>, with the support part of w
    zeroed (+inf stays +inf).

    Requires lifted stationarity (ValidationError otherwise).  The sup
    over the slice does not depend on which subgradient anchors it on
    the support, so one LP is solved.
    """
    pt = _lift(p.g, p.f, y)
    w = _as_vector(w, p.n, "w").copy()
    if not pt.Phi_stationary:
        raise ValidationError("y is not a lifted stationary point")
    w[pt.sup] = 0.0
    quad = d2_lifted_g(p.g, pt, pt.lifted_min_norm[1], w)
    if not np.isfinite(quad):
        return quad
    return quad + 2.0 * float(pt.grad @ (w * w))


def _steepest_direction(pt: LiftedPoint, v):
    """(w, quotient) for the unit off-support w of least second-order
    quotient at the multiplier v, (None, inf) when all give +inf.  With
    h(u) = sup over the slice (E, e) at v of <u, (G theta + grad f) on
    comp> dualized in pi, min h over sum(u) = 1, u >= 0 is the LP
    min e @ pi + grad_comp @ u  s.t.  G_comp[:, j] @ u <= E[:, j] @ pi
    (= on lines); w = sqrt(u) and the quotient is 2 min h.  Anchored at
    -grad f, a rounding residue off the range of G on the support would
    make the LP unbounded; v = G theta lies in that range."""
    S, comp, k = pt.S, pt.comp, pt.comp.size
    E, e = _slice_rows(pt, v[pt.sup])
    # rows are homogeneous: unit peaks keep the set and keep phase 1 sound
    rows = np.hstack([S.G[comp].T, -E.T])
    rows /= np.maximum(np.abs(rows).max(axis=1, keepdims=True), 1e-300)
    signed = S.n_points + S.n_rays
    A_eq = np.vstack([np.repeat([1.0, 0.0], [k, e.size]), rows[signed:]])
    out = lp_solve(-np.concatenate([pt.grad[comp], e]),
                   np.repeat([0.0, -_INF], [k, e.size]), None,
                   A_eq, np.repeat([1.0, 0.0], [1, S.n_lines]),
                   rows[:signed], np.zeros(signed))
    if out.status is LPStatus.INFEASIBLE:
        return None, _INF
    if out.status is LPStatus.UNBOUNDED:
        raise InconsistencyDetected("subdifferential slice at v is empty")
    w = np.zeros(pt.y.size)
    w[comp] = np.sqrt(np.maximum(out.witness[:k], 0.0))
    return w, -2.0 * out.value


@dataclass(frozen=True, eq=False)
class CorrespondenceReport:
    """Joint first/second-order verdict for a lifted candidate.

    consistent records the equivalence (stationary_for_Phi and
    second_order_nonneg_on_SI) == stationary_for_phi; a report with a
    false flag is never returned, the check raises instead.
    witness_lambda = grad f + the minimizer of the phi min-norm pair, an
    original-problem multiplier of norm phi_residual, when second order
    is nonnegative on S_I; otherwise negative_direction is the unit
    off-support direction of least quotient, when there is one below
    -tol * scale.
    """

    stationary_for_Phi: bool
    second_order_nonneg_on_SI: bool
    stationary_for_phi: bool
    consistent: bool
    witness_lambda: np.ndarray | None = None
    negative_direction: np.ndarray | None = None


def correspondence_check(p: CompositeProblem, y) -> CorrespondenceReport:
    """Check the lifted/original stationarity correspondence at y.

    Route one: the lifted multiplier v = lifted_min_norm[1], then the
    least second-order quotient over unit off-support directions at
    it, one LP, which must be at least -tol * scale (no LP when y is not
    lifted stationary or its support is full).  Route two: first-order
    stationarity of y*y for the original problem.  The two must agree.
    """
    pt = _lift(p.g, p.f, y)
    lifted_stationary = second_order = pt.Phi_stationary
    negative_direction = None
    if second_order and pt.comp.size:
        w, val = _steepest_direction(pt, pt.lifted_min_norm[1])
        if val < -pt.tol * pt.scale:
            second_order, negative_direction = False, w
    witness_lambda = (pt.grad + pt.phi_min_norm[1]) if second_order else None

    consistent = second_order == pt.phi_stationary
    report = CorrespondenceReport(lifted_stationary, second_order,
                                  pt.phi_stationary, consistent,
                                  witness_lambda, negative_direction)
    if not consistent:
        raise InconsistencyDetected(
            "stationarity correspondence violated beyond tolerance", report)
    return report
