"""Unit tests for second-order slices, multipliers, and the correspondence check."""

import dataclasses

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import second_order
from sqreparam.oracles import (
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
    random_orthant_instance,
)


def simplex_linear():
    # f(x) = x1 + 2 x2 on the standard simplex, minimized at x = (1, 0)
    f = sq.SmoothQuadratic(np.zeros((2, 2)), np.array([1.0, 2.0]), 0.0)
    return sq.CompositeProblem(f, sq.PolyhedralFunction.simplex_indicator(2))


def point_domain():
    # g is the indicator of {0} in R^1
    dom = sq.Polyhedron(1, A_eq=np.array([[1.0]]), b_eq=np.array([0.0]))
    return sq.PolyhedralFunction(1, domain=dom)


def test_d2_designed_orthant_zero():
    g = sq.PolyhedralFunction.orthant_indicator(2)
    val = sq.d2_lifted_g(g, np.array([1.0, 0.0]), np.array([0.0, -3.0]),
                         np.array([0.0, 1.0]))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_d2_designed_simplex_two():
    g = sq.PolyhedralFunction.simplex_indicator(2)
    val = sq.d2_lifted_g(g, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         np.array([0.0, 1.0]))
    assert val == pytest.approx(2.0, abs=1e-9)


def test_d2_designed_point_domain_infinite():
    val = sq.d2_lifted_g(point_domain(), np.array([0.0]), np.array([0.0]),
                         np.array([1.0]))
    assert val == np.inf


def test_d2_anchor_without_a_matching_subgradient_is_invalid():
    # on the orthant at x = (1, 0) every subgradient is 0 on the support
    g = sq.PolyhedralFunction.orthant_indicator(2)
    with pytest.raises(sq.ValidationError,
                       match="no subgradient matches v on the support"):
        sq.d2_lifted_g(g, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                       np.array([0.0, 1.0]))


def test_d2_positive_homogeneity_degree_two():
    g = sq.PolyhedralFunction.simplex_indicator(2)
    y, v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    base = sq.d2_lifted_g(g, y, v, np.array([0.0, 1.0]))
    scaled = sq.d2_lifted_g(g, y, v, np.array([0.0, 3.0]))
    assert scaled == pytest.approx(9.0 * base, abs=1e-9)


def test_d2_witness_independence():
    # two multipliers agreeing on the support give the same slice value
    g = sq.PolyhedralFunction.simplex_indicator(2)
    y, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    a = sq.d2_lifted_g(g, y, np.array([-1.0, -2.0]), w)
    b = sq.d2_lifted_g(g, y, np.array([-1.0, -5.0]), w)
    assert a == pytest.approx(b, abs=1e-8)


def test_d2_objective_slice_designed_values():
    p = simplex_linear()
    y = np.array([1.0, 0.0])
    assert sq.d2_lifted_objective_on_SI(p, y, np.array([0.0, 1.0])) == \
        pytest.approx(2.0, abs=1e-9)
    assert sq.d2_lifted_objective_on_SI(p, y, np.zeros(2)) == \
        pytest.approx(0.0, abs=1e-12)


def test_d2_objective_matches_smooth_form_on_slice():
    # for the orthant indicator the slice LP tops out at p = 0, leaving the
    # smooth term; the curvature term vanishes on S_I because y o w = 0 there
    for s in range(5):
        p, y, xbar = make_stationary_orthant_instance(s)
        w = np.random.default_rng(s).standard_normal(p.n)
        support, _ = sq.support_set(y)
        w[support] = 0.0
        val = sq.d2_lifted_objective_on_SI(p, y, w)
        smooth = sq.d2_smooth_orthant_lift(p, y, w)
        assert val == pytest.approx(smooth, abs=1e-9 * (1.0 + abs(smooth)))


def test_d2_smooth_orthant_lift_matches_central_difference():
    for s in range(10):
        p, y = random_orthant_instance(s)
        w = np.random.default_rng(1000 + s).standard_normal(p.n)
        closed = sq.d2_smooth_orthant_lift(p, y, w)
        phi = lambda yv: float(p.f.value(yv * yv))
        t = 1e-4
        cd = (phi(y + t * w) - 2.0 * phi(y) + phi(y - t * w)) / (t * t)
        assert cd == pytest.approx(closed, abs=1e-5 * (1.0 + abs(closed)))


def test_stationarity_multiplier_engineered():
    p, y, xbar = make_stationary_orthant_instance(2)
    mult = sq.stationarity_multiplier(p, y)
    assert mult is not None
    # lam = grad f + v must vanish on the support and be a valid subgradient sum
    lam = np.asarray(mult.lam)
    support, _ = sq.support_set(y)
    assert np.all(np.abs(lam[support]) <= 1e-9)
    pt = sq.LocalModel(p.g, p.f, xbar)
    assert sq.vrep_membership(pt.S.translate(pt.grad), lam, tol=1e-8)


def test_stationarity_multiplier_none_when_not_stationary():
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))
    assert sq.stationarity_multiplier(p, np.array([0.5])) is None
    with pytest.raises(sq.ValidationError,
                       match=r"^y is not a lifted stationary point$"):
        sq.d2_lifted_objective_on_SI(p, np.array([0.5]), np.array([1.0]))


def test_correspondence_designed_true_case():
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))
    rep = sq.correspondence_check(p, np.array([1.0]))
    assert rep.stationary_for_Phi
    assert rep.second_order_nonneg_on_SI
    assert rep.stationary_for_phi
    assert rep.consistent
    assert rep.witness_lambda is not None


def test_correspondence_spurious_origin():
    # f = ||x - (1,-1)||^2 / 2 on the orthant: y = 0 is lifted-stationary
    # with a negative second-order slice, so x = 0 is not composite-stationary
    f = sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    rep = sq.correspondence_check(p, np.zeros(2))
    assert rep.stationary_for_Phi
    assert not rep.second_order_nonneg_on_SI
    assert not rep.stationary_for_phi
    assert rep.consistent
    assert rep.negative_direction is not None
    d = np.asarray(rep.negative_direction)
    assert sq.d2_lifted_objective_on_SI(p, np.zeros(2), d) < 0


def test_correspondence_pieces_instance():
    p, y, xbar = make_stationary_pieces_instance(1)
    rep = sq.correspondence_check(p, y)
    assert rep.consistent
    assert rep.stationary_for_Phi and rep.stationary_for_phi


def test_correspondence_spurious_engineered():
    p, y, xbar = make_stationary_orthant_instance(5, spurious=True)
    rep = sq.correspondence_check(p, y)
    assert rep.consistent
    assert rep.stationary_for_Phi
    assert not rep.stationary_for_phi


def test_correspondence_direction_is_the_steepest_off_the_support():
    # on the orthant the quotient of a unit w off the support is
    # 2 <grad f, w*w>, least at the coordinate of the smallest gradient
    p, y, xbar = make_stationary_orthant_instance(5, spurious=True)
    rep = sq.correspondence_check(p, y)
    support, comp = sq.support_set(y)
    w = np.asarray(rep.negative_direction)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w[support] == 0.0)
    least = 2.0 * np.min(p.f.grad(xbar)[comp])
    assert sq.d2_lifted_objective_on_SI(p, y, w) == \
        pytest.approx(least, abs=1e-9 * (1.0 + abs(least)))


def cone(eps):
    # ||x||^2 / 2 + max(x1 - (1 + eps) x2, x2 - (1 + eps) x1) on the
    # orthant.  At y = 0 each unit vector has quotient 2; only mixtures
    # of both coordinates are negative, least -eps at (1, 1) / sqrt(2).
    f = sq.SmoothQuadratic(np.eye(2), np.zeros(2), 0.0)
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[1.0, -1.0 - eps],
                                                    [-1.0 - eps, 1.0]]),
                              pieces_b=np.zeros(2))
    return sq.CompositeProblem(f, g)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_correspondence_finds_the_steepest_direction(eps):
    p, y = cone(eps), np.zeros(2)
    rep = sq.correspondence_check(p, y)
    assert rep.stationary_for_Phi and not rep.stationary_for_phi
    w = np.asarray(rep.negative_direction)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert sq.d2_lifted_objective_on_SI(p, y, w) == \
        pytest.approx(-eps, abs=1e-9)


def test_correspondence_gate_catches_a_feasible_second_order_lp(
        monkeypatch):
    # loosen the rows of the second-order LP so that it reports feasible
    # at the spurious origin of orthant2, where the direction e_1 has
    # quotient -2: the exact minimum must contradict it
    slice_lp = second_order._slice_lp

    def loosened(pt, anchor, objective=None, A_ineq=None, b_ineq=None):
        if b_ineq is not None:
            b_ineq = b_ineq + 2.0
        return slice_lp(pt, anchor, objective, A_ineq, b_ineq)

    monkeypatch.setattr(second_order, "_slice_lp", loosened)
    f = sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    with pytest.raises(sq.InconsistencyDetected, match="LP feasible"):
        sq.correspondence_check(p, np.zeros(2))


# The certificate guards below raise only when a route breaks.  Each test
# breaks one route on orthant2 (f = |x|^2 / 2 + (-1, 1) x on the
# orthant) or on simplex_linear, whose points are exact: at y = (1, 0)
# the lifted residual is 0, at y = (2, 0) it is 12.

def orthant2():
    f = sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 0.0)
    return sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))


def _broken_slice_lp(monkeypatch, multiplier=None, second_order_lp=None):
    """Replace the arguments or the outcome of the multiplier LP (no rows
    A_ineq) or of the second-order LP (rows A_ineq) by the given maps."""
    slice_lp = second_order._slice_lp

    def broken(pt, anchor, objective=None, A_ineq=None, b_ineq=None):
        edit = multiplier if A_ineq is None else second_order_lp
        if edit is None or objective is not None:
            return slice_lp(pt, anchor, objective, A_ineq, b_ineq)
        return edit(slice_lp, pt, anchor, A_ineq, b_ineq)

    monkeypatch.setattr(second_order, "_slice_lp", broken)


def _corrupted_witness(edit):
    """A multiplier LP whose witness edit(theta, S) changes in place."""
    def solve(slice_lp, pt, anchor, A_ineq, b_ineq):
        out = slice_lp(pt, anchor)
        theta = out.witness.copy()
        edit(theta, pt.S)
        return dataclasses.replace(out, witness=theta)
    return solve


def test_multiplier_found_at_a_point_with_a_lifted_residual(monkeypatch):
    # anchored at 0 in place of -grad f = -3 on the support, the slice LP
    # is feasible at y = (2, 0)
    _broken_slice_lp(monkeypatch, multiplier=lambda slice_lp, pt, anchor,
                     A_ineq, b_ineq: slice_lp(pt, 0.0 * anchor))
    with pytest.raises(sq.InconsistencyDetected,
                       match="multiplier found but lifted residual is "
                             "1.200e\\+01"):
        second_order.stationarity_multiplier(orthant2(), np.array([2.0, 0.0]))


def test_multiplier_witness_outside_the_subdifferential(monkeypatch):
    # at y = (1, 0) the slice is cone(-e_2); a ray coefficient of -5
    # puts v = (0, 5) outside it
    def negative_rays(theta, S):
        theta[S.n_points:S.n_points + S.n_rays] = -5.0

    _broken_slice_lp(monkeypatch, multiplier=_corrupted_witness(negative_rays))
    with pytest.raises(sq.InconsistencyDetected,
                       match="multiplier witness escaped the subdifferential"):
        second_order.stationarity_multiplier(orthant2(), np.array([1.0, 0.0]))


def test_multiplier_witness_off_the_support_equations(monkeypatch):
    # x1 + 2 x2 on the simplex at y = (1, 0): the slice pins v_1 = -1;
    # one more unit along the free line (1, 1) stays in the
    # subdifferential but gives v_1 = 0
    def moved_line(theta, S):
        assert S.n_lines == 1
        theta[-1] += 1.0

    _broken_slice_lp(monkeypatch, multiplier=_corrupted_witness(moved_line))
    with pytest.raises(sq.InconsistencyDetected,
                       match="multiplier witness violates the support "
                             "equations"):
        second_order.stationarity_multiplier(simplex_linear(),
                                             np.array([1.0, 0.0]))


def test_no_multiplier_at_a_lifted_stationary_point(monkeypatch):
    # anchored 1 away from -grad f on the support, the slice of
    # cone(-e_2) is empty at the lifted stationary y = (1, 0)
    _broken_slice_lp(monkeypatch, multiplier=lambda slice_lp, pt, anchor,
                     A_ineq, b_ineq: slice_lp(pt, anchor + 1.0))
    with pytest.raises(sq.InconsistencyDetected,
                       match="no multiplier although lifted residual is "
                             "0.000e\\+00"):
        second_order.stationarity_multiplier(orthant2(), np.array([1.0, 0.0]))


def test_steepest_direction_on_an_empty_slice(monkeypatch):
    # a multiplier with v_1 = 1 where every subgradient has v_1 = 0: the
    # slice at v is empty, so the direction LP, its dual, is unbounded
    monkeypatch.setattr(second_order, "stationarity_multiplier",
                        lambda p, pt: second_order.Multiplier(
                            np.array([1.0, 0.0]), np.array([2.0, 0.0])))
    with pytest.raises(sq.InconsistencyDetected,
                       match="subdifferential slice at v is empty"):
        sq.correspondence_check(orthant2(), np.array([1.0, 0.0]))


def test_sign_constrained_multiplier_without_lifted_stationarity(
        monkeypatch):
    # the multiplier LP misses the multiplier 0 at y = (1, 0), which the
    # second-order LP still finds
    monkeypatch.setattr(second_order, "stationarity_multiplier",
                        lambda p, pt: None)
    with pytest.raises(sq.InconsistencyDetected,
                       match="sign-constrained multiplier exists without "
                             "lifted stationarity"):
        sq.correspondence_check(orthant2(), np.array([1.0, 0.0]))


def test_correspondence_violation_carries_its_report(monkeypatch):
    # tightened by 2, the second-order LP asks for grad_2 + v_2 >= 2 with
    # v_2 <= 0 and grad_2 = 1: infeasible at y = (1, 0), a point that is
    # stationary for phi, where e_2 has quotient 2 > 0
    _broken_slice_lp(monkeypatch, second_order_lp=lambda slice_lp, pt, anchor,
                     A_ineq, b_ineq: slice_lp(pt, anchor, None, A_ineq,
                                              b_ineq - 2.0))
    with pytest.raises(sq.InconsistencyDetected,
                       match="stationarity correspondence violated beyond "
                             "tolerance") as caught:
        sq.correspondence_check(orthant2(), np.array([1.0, 0.0]))
    report = caught.value.report
    assert isinstance(report, sq.CorrespondenceReport)
    assert (report.stationary_for_Phi, report.second_order_nonneg_on_SI,
            report.stationary_for_phi, report.consistent) == (
                True, False, True, False)
    assert report.witness_lambda is None and report.negative_direction is None


def two_pieces():
    # ||x||^2 / 2 + max(0, x1 + x2) on the orthant.  At y = 0 the support
    # is empty, so the slice is all of subdiff g(0) = conv{(0, 0), (1, 1)}
    # + cone(-e1, -e2), whatever witness anchors it.
    f = sq.SmoothQuadratic(np.eye(2), np.zeros(2), 0.0)
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[0.0, 0.0], [1.0, 1.0]]),
                              pieces_b=np.zeros(2))
    return sq.CompositeProblem(f, g)


def test_d2_objective_compares_a_second_witness(monkeypatch):
    # the multiplier LP returns v = (0, 0), the second slice LP v = (1, 1);
    # both give 2 sup <w*w, p> = 2.5 at w = (1, 0.5)
    seen = []
    d2_objective = second_order._d2_objective

    def recorded(p, pt, v, w):
        seen.append((v.tolist(), d2_objective(p, pt, v, w)))
        return seen[-1][1]

    monkeypatch.setattr(second_order, "_d2_objective", recorded)
    value = sq.d2_lifted_objective_on_SI(two_pieces(), np.zeros(2),
                                         np.array([1.0, 0.5]))
    assert value == pytest.approx(2.5, abs=1e-12)
    assert [v for v, _ in seen] == [[0.0, 0.0], [1.0, 1.0]]
    assert seen[1][1] == pytest.approx(2.5, abs=1e-12)


def test_d2_objective_raises_when_the_witnesses_disagree(monkeypatch):
    d2_objective = second_order._d2_objective

    def shifted(p, pt, v, w):
        return d2_objective(p, pt, v, w) + float(v.sum())

    monkeypatch.setattr(second_order, "_d2_objective", shifted)
    with pytest.raises(sq.InconsistencyDetected,
                       match="depends on the witness"):
        sq.d2_lifted_objective_on_SI(two_pieces(), np.zeros(2),
                                     np.array([1.0, 0.5]))


def test_steepest_direction_is_none_when_every_quotient_is_infinite(
        monkeypatch):
    # g is the indicator of {x2 = 0} and f = (x1 - 1)^2 / 2 + x2: y = (1, 0)
    # is stationary both ways, and moving y2 leaves the domain, so the
    # steepest-direction LP is infeasible and the quotient along e2 is +inf
    dom = sq.Polyhedron(2, A_eq=np.array([[0.0, 1.0]]), b_eq=np.zeros(1))
    f = sq.SmoothQuadratic(np.diag([1.0, 0.0]), np.array([-1.0, 1.0]), 0.5)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.indicator(dom))
    y = np.array([1.0, 0.0])
    steepest = []
    direction = second_order._steepest_direction

    def recorded(pt, v):
        steepest.append(direction(pt, v))
        return steepest[-1]

    monkeypatch.setattr(second_order, "_steepest_direction", recorded)
    rep = sq.correspondence_check(p, y)
    assert rep.consistent and rep.stationary_for_Phi and rep.stationary_for_phi
    assert rep.negative_direction is None
    assert steepest == [(None, np.inf)]
    assert sq.d2_lifted_objective_on_SI(p, y, np.array([0.0, 1.0])) == np.inf
