"""Unit tests for the brute-force oracles and seeded instance generators."""

import numpy as np
import pytest

import sqreparam as sq
from sqreparam.oracles import (
    enumerate_vertices,
    fd_second_subderivative,
    grid_min_norm,
    grid_min_norm_gap_bound,
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
    random_lp_instance,
    random_nonsmooth_instance,
    random_orthant_instance,
    subgradient_inequality_check,
)


def test_enumerate_vertices_box():
    P = sq.Polyhedron.box(np.zeros(2), np.ones(2))
    V = enumerate_vertices(P)
    assert V.shape == (4, 2)
    got = {tuple(np.round(v, 9)) for v in V}
    assert got == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_enumerate_vertices_simplex():
    V = enumerate_vertices(sq.Polyhedron.standard_simplex(3))
    assert V.shape == (3, 3)
    assert np.allclose(np.sort(V.max(axis=1)), 1.0)


def test_enumerate_vertices_size_cap():
    with pytest.raises(sq.TooLarge):
        enumerate_vertices(sq.Polyhedron.box(np.zeros(9), np.ones(9)))


def test_fd_second_subderivative_smooth_quadratic():
    # H(y) = y1^2 + 2 y2^2 at the origin with zero multiplier: d2 = 2 w1^2 + 4 w2^2
    H = lambda y: float(y[0] ** 2 + 2.0 * y[1] ** 2)
    val = fd_second_subderivative(H, np.zeros(2), np.zeros(2),
                                  np.array([1.0, 0.0]))
    assert val == pytest.approx(2.0, abs=0.05 * 3.0)
    val = fd_second_subderivative(H, np.zeros(2), np.zeros(2),
                                  np.array([0.0, 1.0]))
    assert val == pytest.approx(4.0, abs=0.05 * 5.0)


def test_grid_min_norm_sandwich():
    # the grid optimizes over feasible subgradients only, so it upper-bounds
    # the exact weighted distance; the gap bound caps the overshoot
    g = sq.PolyhedralFunction.orthant_indicator(3)
    S = sq.g_subdiff(g, np.array([0.0, 1.0, 0.0]))
    shift = np.array([0.3, -0.7, 1.1])
    w = np.array([0.9, 1.4, 0.2])
    exact = sq.min_norm_weighted(S, shift, w)[0]
    for res in (8, 16):
        grid = grid_min_norm(S, shift, w, resolution=res)
        bound = grid_min_norm_gap_bound(S, w, resolution=res)
        assert grid >= exact - 1e-9
        assert grid - exact <= bound + 1e-9


def test_grid_resolution_below_eight_rejected():
    S = sq.GeneratorSet(2, points=np.zeros((1, 2)))
    w = np.ones(2)
    with pytest.raises(sq.InvalidRange):
        grid_min_norm(S, np.zeros(2), w, resolution=7)
    with pytest.raises(sq.InvalidRange):
        grid_min_norm_gap_bound(S, w, resolution=7)


def test_grid_min_norm_singleton_exact():
    S = sq.GeneratorSet(2, points=np.zeros((1, 2)))
    shift = np.array([0.6, -0.8])
    w = np.array([2.0, 1.0])
    assert grid_min_norm(S, shift, w) == pytest.approx(
        np.linalg.norm(w * shift), abs=1e-12)


def test_subgradient_inequality_check_cases():
    g = sq.PolyhedralFunction.orthant_indicator(1)
    assert subgradient_inequality_check(g, np.array([0.5]), np.array([0.0]))
    assert subgradient_inequality_check(g, np.array([0.0]), np.array([-1.0]))
    # +1 is not a subgradient of the indicator at 0: violated at z = 0.5
    assert not subgradient_inequality_check(g, np.array([0.0]), np.array([1.0]))


def test_subgradient_inequality_check_pieces():
    g = sq.PolyhedralFunction(1, pieces_A=np.array([[1.0]]),
                              pieces_b=np.zeros(1))
    assert subgradient_inequality_check(g, np.array([1.0]), np.array([1.0]))
    assert not subgradient_inequality_check(g, np.array([1.0]), np.array([2.0]))


def test_random_orthant_instances_wellformed():
    for s in range(20):
        p, y = random_orthant_instance(s)
        assert 1 <= p.n <= 6
        assert np.allclose(p.f.Q, p.f.Q.T)
        assert p.g.n_pieces == 0
        assert p.g.domain.contains(y * y)


def test_random_nonsmooth_instances_wellformed():
    for s in range(20):
        p, y = random_nonsmooth_instance(s)
        assert 1 <= p.n <= 4
        assert p.g.n_pieces <= 4
        assert np.isfinite(sq.lift_eval(p, y))
        S = sq.g_subdiff(p.g, y * y)
        assert S.n_points <= 4 and S.n_rays <= 3 and S.n_lines <= 2


def test_random_lp_instances_bounded_and_small():
    for s in range(20):
        c, P = random_lp_instance(s)
        assert P.m_ineq + P.m_eq <= 16
        V = enumerate_vertices(P)
        assert len(V) >= 1


def test_make_stationary_orthant_instance():
    for s in range(10):
        p, y, xbar = make_stationary_orthant_instance(s)
        assert np.allclose(y * y, xbar, atol=1e-12)
        rep = sq.classify_first_order(p, y)
        assert rep.stationary_for_Phi
        assert rep.stationary_for_phi


def test_make_stationary_orthant_instance_spurious():
    for s in range(10):
        p, y, xbar = make_stationary_orthant_instance(s, spurious=True)
        rep = sq.classify_first_order(p, y)
        assert rep.stationary_for_Phi
        assert not rep.stationary_for_phi


def test_make_stationary_pieces_instance():
    for s in range(10):
        p, y, xbar = make_stationary_pieces_instance(s)
        assert p.g.n_pieces == 2
        rep = sq.classify_first_order(p, y)
        assert rep.stationary_for_Phi
        assert rep.stationary_for_phi
