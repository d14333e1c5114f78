"""Unit tests for the lifted problem: evaluation, residual, classification."""

import numpy as np
import pytest

import sqreparam as sq
from sqreparam.oracles import random_nonsmooth_instance, random_orthant_instance


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
    assert sq.lift_point(p, pt) is pt
    assert sq.lifted_residual(p, pt) == sq.lifted_residual(p, y)
    assert sq.classify_first_order(p, pt) == sq.classify_first_order(p, y)
    # the model caches what it built: a second certificate reuses it
    assert pt.S is sq.lift_point(p, pt).S
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
