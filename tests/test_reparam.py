"""Unit tests for the lifted problem: evaluation, residual, classification."""

import inspect

import numpy as np
import pytest

import sqreparam as sq
from sqreparam.oracles import (
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
    random_nonsmooth_instance,
    random_orthant_instance,
)


def quad1():
    # f(x) = (x-1)^2/2 on the nonnegative half-line; lifted (y^2-1)^2/2
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))


def test_support_set_threshold():
    support, rest = sq.support_set(np.array([2e-8, 0.0, -3.0]))
    assert tuple(support) == (0, 2)
    assert tuple(rest) == (1,)
    # the threshold is strict: |y_i| must exceed tol_support
    assert tuple(sq.support_set(np.array([1e-8]))[0]) == ()
    assert tuple(sq.support_set(np.array([2e-8]))[0]) == (0,)
    assert tuple(sq.support_set(np.array([-2e-8]))[0]) == (0,)


@pytest.mark.parametrize("y", [[np.nan, 1.0, np.inf], [1.0, np.inf], None])
def test_support_set_refuses_a_y_that_is_not_finite(y):
    with pytest.raises(sq.DimensionMismatch,
                       match=r"^y: entries must be finite$"):
        sq.support_set(y)


def test_lift_point_squares_and_flags_domain():
    p = quad1()
    lp = sq.lift_point(p, np.array([-2.0]))
    assert lp.x[0] == pytest.approx(4.0)
    assert lp.in_domain
    assert lp.support == (0,)
    p2 = sq.CompositeProblem(
        sq.SmoothQuadratic(np.zeros((1, 1)), np.zeros(1)),
        sq.PolyhedralFunction.simplex_indicator(1))
    assert not sq.lift_point(p2, np.array([2.0])).in_domain


def test_lifted_point_is_shared_across_certificates():
    p, y = random_nonsmooth_instance(4)
    pt = sq.lift_point(p, y)
    # lift_point builds models from points only
    with pytest.raises(sq.DimensionMismatch):
        sq.lift_point(p, pt)
    assert sq.lifted_residual(p, pt) == sq.lifted_residual(p, y)
    assert sq.classify_first_order(p, pt) == sq.classify_first_order(p, y)
    # the model caches what it built: a second certificate reuses it
    S = pt.S
    sq.correspondence_check(p, pt)
    assert pt.S is S and {"lifted_min_norm", "phi_min_norm"} <= vars(pt).keys()
    other = sq.CompositeProblem(p.f, sq.PolyhedralFunction.orthant_indicator(p.n))
    with pytest.raises(sq.DimensionMismatch):
        sq.lifted_residual(other, pt)


def test_lift_eval_matches_composite_value():
    rng = np.random.default_rng(11)
    for s in range(20):
        p, y = random_nonsmooth_instance(s)
        z = rng.standard_normal(p.n)
        for pt in (y, z):
            lifted = sq.lift_eval(p, pt)
            direct = sq.phi_value(p, pt * pt)
            if np.isinf(direct):
                assert np.isinf(lifted)
            else:
                assert lifted == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


def test_lifted_residual_sign_flip_invariance():
    rng = np.random.default_rng(3)
    for s in range(10):
        p, y = random_orthant_instance(s)
        flips = rng.choice([-1.0, 1.0], size=p.n)
        assert sq.lifted_residual(p, flips * y) == sq.lifted_residual(p, y)


def test_lifted_residual_zero_point_vanishes():
    # y = 0 zeroes every weight, so the lifted residual is 0 even though
    # the underlying point x = 0 is not stationary for the composite
    p = quad1()
    assert sq.lifted_residual(p, np.array([0.0])) == 0.0
    assert sq.phi_residual(p, np.array([0.0])) == pytest.approx(1.0, abs=1e-9)


def test_classify_first_order_designed_cases():
    p = quad1()
    rep = sq.classify_first_order(p, np.array([1.0]))
    assert rep.stationary_for_Phi and rep.stationary_for_phi
    assert rep.lifted_residual == pytest.approx(0.0, abs=1e-12)
    assert rep.support == (0,)
    assert rep.min_support_abs == pytest.approx(1.0)

    rep = sq.classify_first_order(p, np.array([0.0]))
    assert rep.stationary_for_Phi and not rep.stationary_for_phi
    assert rep.support == ()
    assert rep.min_support_abs is None

    rep = sq.classify_first_order(p, np.array([0.5]))
    assert not rep.stationary_for_Phi and not rep.stationary_for_phi
    # residual equals the smooth-lift gradient norm |2 y f'(y^2)|
    assert rep.lifted_residual == pytest.approx(0.75, abs=1e-12)
    assert rep.phi_residual == pytest.approx(0.75, abs=1e-9)


def test_classify_out_of_domain_point():
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.zeros((1, 1)), np.zeros(1)),
        sq.PolyhedralFunction.simplex_indicator(1))
    rep = sq.classify_first_order(p, np.array([2.0]))
    assert not rep.in_domain
    assert not rep.stationary_for_Phi


def test_lift_eval_infinite_outside_lifted_domain():
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.zeros((1, 1)), np.zeros(1)),
        sq.PolyhedralFunction.simplex_indicator(1))
    assert sq.lift_eval(p, np.array([2.0])) == np.inf
    assert sq.lift_eval(p, np.array([1.0])) == 0.0


ORTHANT2 = sq.CompositeProblem(
    sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0),
    sq.PolyhedralFunction.orthant_indicator(2))


@pytest.mark.parametrize("call", [sq.lift_point, sq.lifted_residual,
                                  sq.classify_first_order, sq.lift_eval])
def test_a_y_whose_square_overflows_is_refused(call):
    # y is finite, y*y is not: refused as y before any arithmetic on y*y,
    # with no RuntimeWarning (the suite turns one into an error)
    with pytest.raises(sq.DimensionMismatch, match=r"^y: y\*y must be finite$"):
        call(ORTHANT2, [1e200, 0.0])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, None, "x", True])
@pytest.mark.parametrize("call", [
    lambda t: sq.lift_point(ORTHANT2, [1.0, 0.0], tol=t),
    lambda t: sq.lift_point(ORTHANT2, [1.0, 0.0], tol_support=t),
    lambda t: sq.LiftedPoint(ORTHANT2.g, ORTHANT2.f, [1.0, 0.0], tol=t),
    lambda t: sq.LiftedPoint(ORTHANT2.g, ORTHANT2.f, [1.0, 0.0],
                             tol_support=t),
    lambda t: sq.LocalModel(ORTHANT2.g, ORTHANT2.f, [1.0, 0.0], tol=t),
    lambda t: sq.LocalModel(ORTHANT2.g, None, [1.0, 0.0], tol=t),
    lambda t: sq.strict_complementarity(ORTHANT2, [1.0, 0.0], tol=t),
    lambda t: sq.support_set([1.0, 0.0], tol_support=t),
    lambda t: ORTHANT2.g.domain.contains([1.0, 0.0], tol=t),
    lambda t: sq.vrep_membership(sq.g_subdiff(ORTHANT2.g, [1.0, 0.0]),
                                 [0.0, 0.0], tol=t),
])
def test_tolerances_must_be_finite_and_nonnegative(call, bad):
    # every public tolerance keyword (test_public_tolerance_keywords): the
    # models, strict_complementarity, support_set and the membership
    # tests; a tolerance is a real number, not a bool
    with pytest.raises(sq.InvalidRange):
        call(bad)


def test_zero_tolerances_are_allowed():
    pt = sq.lift_point(ORTHANT2, [1.0, 0.0], tol=0.0, tol_support=0.0)
    report = sq.classify_first_order(ORTHANT2, pt)
    assert report.in_domain and report.stationary_for_phi


def test_the_models_tolerance_decides_the_verdict():
    # grad f(x) = (1e-6, 0) at x = (1, 0): both residuals lie between the
    # default tolerance 1e-9 and 1e-3
    p = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(2), np.array([-1.0 + 1e-6, 0.0])),
        sq.PolyhedralFunction.orthant_indicator(2))
    y = np.array([1.0, 0.0])
    loose = sq.lift_point(p, y, tol=1e-3)
    assert loose.tol == 1e-3
    report = sq.classify_first_order(p, loose)
    assert report.stationary_for_Phi and report.stationary_for_phi
    report = sq.classify_first_order(p, y)
    assert not report.stationary_for_Phi and not report.stationary_for_phi


def rescaled_orthant_instance(seed, spurious):
    # f + g of a designed instance multiplied by 1e6 (the orthant
    # indicator is its own multiple): the same stationary points
    p, y, _ = make_stationary_orthant_instance(seed, spurious)
    f = sq.SmoothQuadratic(1e6 * p.f.Q, 1e6 * p.f.q)
    return sq.CompositeProblem(f, p.g), y


RESCALED = [(s, spurious) for spurious in (False, True) for s in range(40)]


def criterion_2_mix(s):
    # the instance mix of the correspondence acceptance criterion
    seed = 5000 + s
    kind = s % 5
    if kind == 0:
        return random_orthant_instance(seed)
    if kind == 3:
        return random_nonsmooth_instance(seed)
    if kind == 4:
        return make_stationary_pieces_instance(seed)[:2]
    return make_stationary_orthant_instance(seed, spurious=kind == 2)[:2]


def test_classify_rescaled_stationary_points():
    # bare tol against residuals of order 1e6 * eps read a stationary
    # point as not stationary on 26 of these 80
    wrong = []
    for s, spurious in RESCALED:
        p, y = rescaled_orthant_instance(s, spurious)
        report = sq.classify_first_order(p, y)
        if (report.stationary_for_Phi, report.stationary_for_phi) != \
                (True, not spurious):
            wrong.append((s, spurious))
    assert wrong == []


def test_classify_reports_the_models_verdicts():
    instances = [rescaled_orthant_instance(s, spurious)
                 for s, spurious in RESCALED]
    instances += [criterion_2_mix(s) for s in range(200)]
    for p, y in instances:
        pt = sq.lift_point(p, y)
        report = sq.classify_first_order(p, pt)
        if report.in_domain:
            assert (report.stationary_for_Phi, report.stationary_for_phi) == \
                (pt.Phi_stationary, pt.phi_stationary)
            assert pt.scale == 1.0 + np.linalg.norm(pt.grad)


def test_public_tolerance_keywords():
    # a tolerance is set only on the models, strict_complementarity and the
    # kernels; every other function uses the defaults
    found = set()
    for name in sq.__all__:
        obj = getattr(sq, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", member)
                        for attr, member in vars(obj).items()
                        if not attr.startswith("_") and callable(member)]
        for label, member in members:
            if not callable(member):
                continue
            try:
                params = inspect.signature(member).parameters
            except (TypeError, ValueError):
                continue
            found |= {f"{label}.{param}" for param in params
                      if param.startswith("tol")}
    assert found == {
        "LiftedPoint.tol", "LiftedPoint.tol_support", "LocalModel.tol",
        "lift_point.tol", "lift_point.tol_support",
        "strict_complementarity.tol", "Polyhedron.contains.tol",
        "vrep_membership.tol", "support_set.tol_support",
    }
