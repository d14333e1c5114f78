"""Unit tests for second-order slices, the lifted multiplier, and the
correspondence check."""

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import second_order
from sqreparam.oracles import (
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
    random_nonsmooth_instance,
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
    pt = sq.lift_point(p, y)
    assert pt.Phi_stationary
    # the multiplier v is the minimizer of the lifted min-norm pair, and
    # lam = 2 y o v must vanish on the support and be a valid subgradient sum
    lam = 2.0 * pt.y * pt.lifted_min_norm[1]
    support, _ = sq.support_set(y)
    assert np.all(np.abs(lam[support]) <= 1e-9)
    model = sq.LocalModel(p.g, p.f, xbar)
    assert sq.vrep_membership(model.S.translate(model.grad), lam, tol=1e-8)


def test_stationarity_multiplier_none_when_not_stationary():
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))
    assert not sq.lift_point(p, np.array([0.5])).Phi_stationary
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


# The certificate guards below raise only when a route breaks.  Each test
# breaks one route on orthant2 (f = |x|^2 / 2 + (-1, 1) x on the
# orthant), whose point y = (1, 0) is exact: its lifted residual is 0.

def orthant2():
    f = sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 0.0)
    return sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))


def test_steepest_direction_on_an_empty_slice(monkeypatch):
    # a multiplier with v_1 = 1 where every subgradient has v_1 = 0: the
    # slice at v is empty, so the direction LP, its dual, is unbounded
    monkeypatch.setattr(sq.LiftedPoint, "lifted_min_norm",
                        property(lambda pt: (0.0, np.array([1.0, 0.0]))))
    with pytest.raises(sq.InconsistencyDetected,
                       match="subdifferential slice at v is empty"):
        sq.correspondence_check(orthant2(), np.array([1.0, 0.0]))


def test_correspondence_violation_carries_its_report(monkeypatch):
    # at y = (1, 0), a point stationary for phi, e_2 has quotient
    # 2 grad_2 = 2 > 0; reported as -2, it breaks second order alone
    e_2 = np.array([0.0, 1.0])
    monkeypatch.setattr(second_order, "_steepest_direction",
                        lambda pt, v: (e_2, -2.0))
    with pytest.raises(sq.InconsistencyDetected,
                       match="stationarity correspondence violated beyond "
                             "tolerance") as caught:
        sq.correspondence_check(orthant2(), np.array([1.0, 0.0]))
    report = caught.value.report
    assert isinstance(report, sq.CorrespondenceReport)
    assert (report.stationary_for_Phi, report.second_order_nonneg_on_SI,
            report.stationary_for_phi, report.consistent) == (
                True, False, True, False)
    assert report.witness_lambda is None
    assert report.negative_direction is e_2


def two_pieces():
    # ||x||^2 / 2 + max(0, x1 + x2) on the orthant.  At y = 0 the support
    # is empty, so the slice is all of subdiff g(0) = conv{(0, 0), (1, 1)}
    # + cone(-e1, -e2), whatever witness anchors it.
    f = sq.SmoothQuadratic(np.eye(2), np.zeros(2), 0.0)
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[0.0, 0.0], [1.0, 1.0]]),
                              pieces_b=np.zeros(2))
    return sq.CompositeProblem(f, g)


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


def scaled(p, factor):
    """p with f multiplied by factor; g is an indicator, unchanged."""
    f = p.f
    return sq.CompositeProblem(
        sq.SmoothQuadratic(factor * f.Q, factor * f.q, factor * f.r), p.g)


@pytest.mark.parametrize("seed, spurious", [(20, False), (20, True),
                                            (182, True)])
def test_correspondence_rescaled_orthant_instances_keep_their_design(
        seed, spurious):
    # multiplied by 1e6, each leaves a lifted residual of 3e-9 to 6e-9,
    # inside tol * scale: the multiplier is the lifted minimizer, so the
    # verdicts are the designed ones
    p, y, _ = make_stationary_orthant_instance(seed, spurious=spurious)
    rep = sq.correspondence_check(scaled(p, 1e6), y)
    assert (rep.stationary_for_Phi, rep.second_order_nonneg_on_SI,
            rep.stationary_for_phi, rep.negative_direction is not None) == (
                True, not spurious, not spurious, spurious)
    assert rep.consistent


def test_correspondence_tolerance_example_is_consistent():
    # grad f(0) = (1e6, -1e-8): e_2 has quotient -2e-8, inside
    # tol * scale = 1e-9 * (1 + 1e6), and the phi residual is 1e-8
    f = sq.SmoothQuadratic(np.eye(2), np.array([1e6, -1e-8]), 0.0)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    rep = sq.correspondence_check(p, np.zeros(2))
    assert (rep.stationary_for_Phi, rep.second_order_nonneg_on_SI,
            rep.stationary_for_phi, rep.consistent) == (True, True, True, True)
    assert rep.negative_direction is None
    assert np.array_equal(rep.witness_lambda, [0.0, -1e-8])


def simplex_instance(seed):
    """A convex quadratic on the standard simplex, lifted stationary at
    y = sqrt(xbar): grad f(xbar) is constant on the support of xbar and
    differs from that constant off it by a draw of either sign, so xbar
    is stationary for phi exactly when every draw is nonnegative.
    Returns (problem, y)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    support = rng.random(n) < 0.6
    support[int(rng.integers(0, n))] = True
    xbar = np.where(support, rng.uniform(0.2, 1.0, n), 0.0)
    xbar /= xbar.sum()
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n
    grad = rng.standard_normal() + np.where(support, 0.0,
                                            rng.uniform(-0.5, 1.0, n))
    f = sq.SmoothQuadratic(Q, grad - Q @ xbar, 0.0)
    g = sq.PolyhedralFunction.simplex_indicator(n)
    return sq.CompositeProblem(f, g), np.sqrt(xbar)


def lifted_stationary_instances():
    for seed in range(12):
        yield make_stationary_orthant_instance(seed)[:2]
        yield make_stationary_orthant_instance(seed, spurious=True)[:2]
        yield make_stationary_pieces_instance(seed)[:2]
        yield simplex_instance(seed)


def test_multiplier_is_the_lifted_min_norm_subgradient():
    # the multiplier v, the minimizer of the lifted min-norm pair, lies
    # in subdiff g(y*y) and attains the lifted residual
    for p, y in lifted_stationary_instances():
        pt = sq.lift_point(p, y)
        assert pt.Phi_stationary
        v = pt.lifted_min_norm[1]
        assert sq.vrep_membership(pt.S, v)
        attained = np.linalg.norm(np.abs(pt.y) * (pt.grad + v))
        assert attained == pytest.approx(pt.lifted_residual / 2.0,
                                         rel=1e-12, abs=1e-15)


def _count_lp_calls(monkeypatch):
    calls = []
    lp_solve = sq.polyhedra.lp_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return lp_solve(*args, **kwargs)

    for module in (sq.polyhedra, second_order):
        monkeypatch.setattr(module, "lp_solve", counted)
    return calls


def test_d2_objective_solves_one_lp(monkeypatch):
    # at y = 0 the slice is all of subdiff g(0), and 2 sup <w*w, p> over
    # it is 2.5 at w = (1, 0.5), reached at p = (1, 1): one LP
    lps = _count_lp_calls(monkeypatch)
    p, y = two_pieces(), np.zeros(2)
    pt = sq.lift_point(p, y)
    assert pt.Phi_stationary
    del lps[:]
    value = sq.d2_lifted_objective_on_SI(p, pt, np.array([1.0, 0.5]))
    assert value == pytest.approx(2.5, abs=1e-12)
    assert len(lps) == 1


def test_correspondence_witness_and_lp_count(monkeypatch):
    # a returned witness_lambda is grad f plus a subgradient of g at y*y
    # and is stationary; the check solves one LP, the steepest direction,
    # and only at a lifted stationary point with an off-support set
    lps = _count_lp_calls(monkeypatch)
    points = list(lifted_stationary_instances())
    points += [random_orthant_instance(s) for s in range(30)]
    points += [random_nonsmooth_instance(s) for s in range(30)]
    witnesses = 0
    for p, y in points:
        pt = sq.lift_point(p, y)
        del lps[:]
        rep = sq.correspondence_check(p, pt)
        needs_lp = pt.Phi_stationary and pt.comp.size > 0
        assert len(lps) == (1 if needs_lp else 0)
        if rep.witness_lambda is not None:
            witnesses += 1
            assert sq.vrep_membership(pt.S, rep.witness_lambda - pt.grad)
            assert np.linalg.norm(rep.witness_lambda) <= pt.tol * pt.scale
    assert witnesses >= 24


def test_second_order_sign_flip_invariance():
    # (-y)*(-y) equals y*y bit for bit, and every certificate reads y
    # through |y| and the support: flipping signs moves no output
    points = list(lifted_stationary_instances())
    points += [random_orthant_instance(s) for s in range(30)]
    points += [random_nonsmooth_instance(s) for s in range(30)]
    for i, (p, y) in enumerate(points):
        rng = np.random.default_rng(i)
        flipped = np.where(rng.random(p.n) < 0.5, -y, y)
        a = sq.correspondence_check(p, y)
        b = sq.correspondence_check(p, flipped)
        assert (a.stationary_for_Phi, a.second_order_nonneg_on_SI,
                a.stationary_for_phi, a.consistent) == (
                    b.stationary_for_Phi, b.second_order_nonneg_on_SI,
                    b.stationary_for_phi, b.consistent)
        for left, right in ((a.negative_direction, b.negative_direction),
                            (a.witness_lambda, b.witness_lambda)):
            assert (left is None) == (right is None)
            if left is not None:
                np.testing.assert_array_equal(left, right)
        if a.stationary_for_Phi:
            w = rng.standard_normal(p.n)
            assert sq.d2_lifted_objective_on_SI(p, flipped, w) == \
                sq.d2_lifted_objective_on_SI(p, y, w)
