"""Unit tests for the polyhedral kernels: LP, projection, generator sets."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import oracles, polyhedra
from sqreparam.oracles import _qp_active_set, enumerate_vertices, grid_min_norm


def test_box_constructor_rows():
    P = sq.Polyhedron.box(np.zeros(2), np.array([1.0, 2.0]))
    assert P.n == 2
    assert P.m_ineq == 4
    assert P.m_eq == 0
    assert P.contains(np.array([0.5, 1.5]))
    assert not P.contains(np.array([0.5, 2.5]))


def test_max_violation_signs():
    P = sq.Polyhedron.box(np.zeros(1), np.ones(1))
    assert P.max_violation(np.array([0.5])) <= 0.0
    assert P.max_violation(np.array([1.5])) == pytest.approx(0.5)


def test_lp_solve_hand_case():
    # max x + y over the box [0,1] x [0,2]: optimum 3 at (1,2)
    P = sq.Polyhedron.box(np.zeros(2), np.array([1.0, 2.0]))
    out = sq.lp_solve(np.ones(2), A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    assert out.status == sq.LPStatus.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(out.witness, [1.0, 2.0], atol=1e-12)


def test_lp_solve_bounds_form():
    out = sq.lp_solve(np.array([2.0, -1.0]), lower=np.array([-1.0, 0.0]),
                      upper=np.array([4.0, 5.0]))
    assert out.status == sq.LPStatus.OPTIMAL
    assert out.value == pytest.approx(8.0, abs=1e-12)
    assert np.allclose(out.witness, [4.0, 0.0], atol=1e-12)


def test_lp_solve_equality_row():
    # max x1 on the standard simplex: vertex e1
    out = sq.lp_solve(np.array([1.0, 0.0, 0.0]), lower=np.zeros(3),
                      A_eq=np.ones((1, 3)), b_eq=np.ones(1))
    assert out.status == sq.LPStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build, message", [
    (lambda: sq.Polyhedron(0), "n must be a positive integer"),
    (lambda: sq.Polyhedron(True), "n must be a positive integer"),
    (lambda: sq.GeneratorSet(0, np.zeros((1, 0))),
     "n must be a positive integer"),
    (lambda: sq.GeneratorSet(True, [[0.0]]), "n must be a positive integer"),
    (lambda: sq.lp_solve([]), "objective must be a nonempty finite vector"),
    (lambda: sq.lp_solve([np.nan]),
     "objective must be a nonempty finite vector"),
    (lambda: sq.lp_solve([1.0], lower=[np.nan]),
     "lower: NaN entries are not allowed"),
], ids=["polyhedron-n-0", "polyhedron-n-bool", "generator-set-n-0",
        "generator-set-n-bool", "lp-empty-objective",
        "lp-nan-objective", "lp-nan-bound"])
def test_kernels_refuse_bad_shapes(build, message):
    with pytest.raises(sq.DimensionMismatch, match=message):
        build()


def test_lp_solve_infeasible():
    out = sq.lp_solve(np.ones(1), A_ineq=np.array([[1.0], [-1.0]]),
                      b_ineq=np.array([0.0, -1.0]))
    assert out.status == sq.LPStatus.INFEASIBLE


def test_lp_solve_unbounded():
    out = sq.lp_solve(np.ones(1), A_ineq=np.array([[-1.0]]),
                      b_ineq=np.array([0.0]))
    assert out.status == sq.LPStatus.UNBOUNDED


def test_projection_hand_cases():
    box = sq.Polyhedron.box(np.zeros(2), np.ones(2))
    z = sq.project_onto_polyhedron(box, np.array([2.0, -1.0]))
    assert np.allclose(z, [1.0, 0.0], atol=1e-9)
    simp = sq.Polyhedron.standard_simplex(2)
    z = sq.project_onto_polyhedron(simp, np.array([1.0, 1.0]))
    assert np.allclose(z, [0.5, 0.5], atol=1e-9)


def test_projection_interior_point_fixed():
    box = sq.Polyhedron.box(np.zeros(2), np.ones(2))
    x = np.array([0.25, 0.75])
    assert np.allclose(sq.project_onto_polyhedron(box, x), x, atol=1e-12)


def test_projection_idempotent():
    simp = sq.Polyhedron.standard_simplex(3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = sq.project_onto_polyhedron(simp, rng.standard_normal(3))
        z2 = sq.project_onto_polyhedron(simp, z)
        assert np.linalg.norm(z2 - z) <= 1e-9


def test_feasible_point_and_infeasibility(monkeypatch):
    # a simplex and a box are read off their shape, without an LP
    lps = _recorded_lps(monkeypatch)
    simp = sq.Polyhedron.standard_simplex(4)
    z = sq.feasible_point(simp)
    assert simp.contains(z)
    bad = sq.Polyhedron(1, A_ineq=np.array([[1.0], [-1.0]]),
                        b_ineq=np.array([0.0, -1.0]))
    with pytest.raises(sq.InfeasiblePolyhedron):
        sq.feasible_point(bad)
    with pytest.raises(sq.InfeasiblePolyhedron):
        sq.project_onto_polyhedron(bad, np.zeros(1))
    assert lps == []


@pytest.mark.parametrize("P, point", [
    (sq.Polyhedron.nonneg_orthant(3), [0.0, 0.0, 0.0]),
    (sq.Polyhedron.box([1.0, -2.0, -3.0], [2.0, -1.0, 4.0]),
     [1.0, -1.0, 0.0]),
    (sq.Polyhedron(2, A_ineq=[[2.0, 0.0], [0.0, -1.0]], b_ineq=[-4.0, -1.0]),
     [-2.0, 1.0]),
    (sq.Polyhedron.standard_simplex(4), [0.25, 0.25, 0.25, 0.25]),
    (sq.Polyhedron(2, A_ineq=-3.0 * np.eye(2), b_ineq=np.zeros(2),
                   A_eq=[[2.0, 2.0]], b_eq=[6.0]), [1.5, 1.5]),
    # 3 z1 + 4 z2 >= 10: the dual projection steps to the nearest point
    (sq.Polyhedron(2, A_ineq=[[-3.0, -4.0], [1.0, 0.0]], b_ineq=[-10.0, 5.0]),
     [1.2, 1.6]),
], ids=["orthant", "box", "half-bounded", "simplex", "scaled-simplex",
        "general"])
def test_feasible_point_of_a_box_or_simplex_solves_no_lp(monkeypatch, P,
                                                         point):
    # the projection of the origin, whatever the shape
    lps = _recorded_lps(monkeypatch)
    assert np.array_equal(sq.feasible_point(P), point)
    assert lps == []


def _rows_around(rng, n, p, normals, slack):
    """Rows a z <= a p + slack for the unit rows normals (k, 2), turned
    into R^n by a random orthonormal pair, beside n random rows that
    hold at p with room."""
    U = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    A = np.vstack([normals @ U.T, rng.standard_normal((n, n))])
    b = A @ p + np.concatenate([np.full(len(normals), slack),
                                rng.uniform(0.1, 1.0, n)])
    return sq.Polyhedron(n, A, b)


def _unit(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _general_draws(rng, n):
    """(P, empty) pairs: n-dimensional general polyhedra that are
    nonempty (random rows, some equalities, or 2n + 1 rows tight at one
    vertex), or empty by delta >= 1e-8 (a parallel pair, or a triangle
    whose three rows are pulled in by delta past a common point)."""
    p = 2.0 * rng.standard_normal(n)
    A = rng.standard_normal((3 * n, n))
    yield sq.Polyhedron(n, A, A @ p + rng.uniform(0.0, 1.0, 3 * n)), False
    E = rng.standard_normal((max(n // 2, 1), n))
    yield sq.Polyhedron(n, A, A @ p + rng.uniform(0.0, 1.0, 3 * n),
                        E, E @ p), False
    V = rng.standard_normal((2 * n + 1, n))
    yield sq.Polyhedron(n, V, V @ p), False
    turn = rng.uniform(0.0, 2.0 * np.pi)
    for delta in (1e-8, 1e-6, 1e-3):
        pair = _unit(turn + np.array([0.0, np.pi]))
        yield _rows_around(rng, n, p, pair, -delta / 2.0), True
        # three normals with a positive combination 0: the rows
        # a_i (z - p) <= -delta admit no z
        triangle = _unit(turn + np.array([0.0, 2.0, 4.0])
                         + rng.uniform(-0.3, 0.3, 3))
        yield _rows_around(rng, n, p, triangle, -delta), True


@pytest.mark.parametrize("n", [2, 5, 20])
def test_feasible_point_agrees_with_the_lp_on_emptiness(n):
    # the zero-objective LP is the judge: on a nonempty draw feasible_point
    # finds a point feasible to 1e-9 and no longer than the LP's witness,
    # being the projection of the origin; on an empty draw both refuse.
    # The LP accepts violations up to 1e-9 (1 + max|b|), so of the sets
    # empty by 1e-8 it refuses only those whose right-hand sides are
    # small; a witness it returns for the others violates a row by more
    # than 1e-9
    rng = np.random.default_rng(3000 + n)
    refused = 0
    for _ in range(4):
        for P, empty in _general_draws(rng, n):
            assert P.shape.kind == "general"
            out = sq.lp_solve(np.zeros(n), None, None, P.A_eq, P.b_eq,
                              P.A_ineq, P.b_ineq)
            if empty:
                with pytest.raises(sq.InfeasiblePolyhedron):
                    sq.feasible_point(P)
                if out.status is sq.LPStatus.INFEASIBLE:
                    refused += 1
                else:
                    assert P.max_violation(out.witness) > 1e-9
                continue
            assert out.status is sq.LPStatus.OPTIMAL
            z = sq.feasible_point(P)
            assert P.max_violation(z) <= 1e-9
            assert np.linalg.norm(z) <= np.linalg.norm(out.witness) + 1e-9
    assert refused >= 20


@pytest.mark.parametrize("delta, empty", [(1e-8, True), (1e-10, True),
                                          (1e-14, False)])
def test_feasible_point_refuses_what_every_projection_refuses(delta, empty):
    # {z1 + z2 <= 0, z1 + z2 >= delta}: at delta = 1e-10 the LP, within
    # its 1e-9 tolerances, returns a point that violates a row by delta,
    # but the set is empty by the dual projection's roundoff test, so
    # feasible_point refuses it as every projection onto it does
    P = sq.Polyhedron(2, A_ineq=[[1.0, 1.0], [-1.0, -1.0]],
                      b_ineq=[0.0, -delta])
    out = sq.lp_solve(np.zeros(2), A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    if delta == 1e-10:
        assert out.status is sq.LPStatus.OPTIMAL
        assert P.max_violation(out.witness) == pytest.approx(delta)
    if empty:
        for route in (sq.feasible_point,
                      lambda P: sq.project_onto_polyhedron(P, [3.0, -1.0])):
            with pytest.raises(sq.InfeasiblePolyhedron):
                route(P)
    else:
        assert P.max_violation(sq.feasible_point(P)) <= 1e-13


@pytest.mark.parametrize("points", [None, np.zeros((0, 2))],
                         ids=["rays-and-lines", "empty-points"])
def test_generator_set_without_points_is_refused(points):
    # rays and lines alone do not make a nonempty set
    with pytest.raises(sq.DimensionMismatch, match="at least one point"):
        sq.GeneratorSet(2, points, rays=[[1.0, 0.0]], lines=[[0.0, 1.0]])


@pytest.mark.parametrize("query, expected", [
    (lambda S: sq.min_norm_weighted(S, np.array([1.0, 3.0]), np.ones(2))[0],
     1.0),
    (lambda S: sq.vrep_membership(S, np.array([1.0, -3.0])), True),
    (lambda S: sq.vrep_ri_membership(S, np.array([1.0, -3.0])), True),
    (lambda S: sq.vrep_support(S, np.array([-1.0, 0.0])), 0.0),
    (lambda S: grid_min_norm(S, np.array([1.0, 3.0]), np.ones(2)), 1.0),
], ids=["min_norm_weighted", "vrep_membership", "vrep_ri_membership",
        "vrep_support", "grid_min_norm"])
def test_queries_on_an_empty_generator_set_are_invalid(query, expected):
    # no query can be handed an empty set: building one is refused
    with pytest.raises(sq.DimensionMismatch, match="at least one point"):
        query(sq.GeneratorSet(2, rays=[[1.0, 0.0]], lines=[[0.0, 1.0]]))
    # with a point the same generators make the half-plane x >= 0, which
    # every query answers without an emptiness check of its own
    S = sq.GeneratorSet(2, [[0.0, 0.0]], rays=[[1.0, 0.0]], lines=[[0.0, 1.0]])
    assert query(S) == pytest.approx(expected, abs=1e-9)


def test_generator_set_is_one_read_only_stack():
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    rays = np.array([[0.0, 0.0], [0.0, 1.0]])
    S = sq.GeneratorSet(2, pts, rays, [[1.0, 1.0]])
    assert S.G is S.G
    assert S.G.shape == (2, 4) and not S.G.flags.writeable
    assert np.array_equal(S.G, np.vstack([pts, rays[1:], [[1.0, 1.0]]]).T)
    for part in (S.points, S.rays, S.lines):
        assert np.shares_memory(part, S.G) and not part.flags.writeable
    # the caller's arrays are neither kept nor frozen
    assert pts.flags.writeable and not np.shares_memory(pts, S.G)
    pts[0, 0] = 5.0
    assert np.array_equal(S.points, [[1.0, 0.0], [0.0, 2.0]])


def test_generator_set_drops_zero_rays_and_lines():
    S = sq.GeneratorSet(2, points=np.array([[1.0, 0.0]]),
                        rays=np.array([[0.0, 0.0], [0.0, 1.0]]),
                        lines=np.array([[0.0, 0.0]]))
    assert S.n_points == 1
    assert S.n_rays == 1
    assert S.n_lines == 0


def test_generator_set_keeps_zero_points():
    S = sq.GeneratorSet(1, points=np.array([[0.0]]))
    assert S.n_points == 1
    assert sq.vrep_membership(S, [0.0])


def test_generator_combine_and_translate():
    S = sq.GeneratorSet(2, points=np.array([[1.0, 0.0]]),
                        rays=np.array([[0.0, 1.0]]))
    T = S.translate(np.array([1.0, 1.0]))
    assert np.allclose(T.points, [[2.0, 1.0]])
    assert np.allclose(T.rays, [[0.0, 1.0]])


def test_vrep_membership_segment():
    Seg = sq.GeneratorSet(1, points=np.array([[0.0], [2.0]]))
    assert sq.vrep_membership(Seg, np.array([1.0]))
    assert sq.vrep_membership(Seg, np.array([0.0]))
    assert sq.vrep_membership(Seg, np.array([2.0]))
    assert not sq.vrep_membership(Seg, np.array([2.1]))
    assert not sq.vrep_membership(Seg, np.array([-0.1]))


def test_vrep_membership_with_rays_and_lines():
    S = sq.GeneratorSet(2, points=np.array([[0.0, 0.0]]),
                        rays=np.array([[1.0, 0.0]]),
                        lines=np.array([[0.0, 1.0]]))
    assert sq.vrep_membership(S, np.array([3.0, -7.0]))
    assert not sq.vrep_membership(S, np.array([-0.5, 0.0]))


def test_vrep_ri_membership_interval_endpoints():
    Seg = sq.GeneratorSet(1, points=np.array([[0.0], [2.0]]))
    assert sq.vrep_ri_membership(Seg, np.array([1.0]))
    assert not sq.vrep_ri_membership(Seg, np.array([0.0]))
    assert not sq.vrep_ri_membership(Seg, np.array([2.0]))


def test_vrep_ri_membership_singleton_origin():
    S = sq.GeneratorSet(1, points=np.array([[0.0]]))
    assert sq.vrep_ri_membership(S, np.array([0.0]))


def test_vrep_ri_membership_halfline():
    S = sq.GeneratorSet(1, points=np.array([[0.0]]), rays=np.array([[1.0]]))
    assert sq.vrep_ri_membership(S, np.array([1.0]))
    assert not sq.vrep_ri_membership(S, np.array([0.0]))


def test_vrep_ri_membership_strip():
    # {0} x (-inf, 1]: ri needs the second coordinate strictly below 1
    S = sq.GeneratorSet(2, points=np.array([[0.0, 1.0]]),
                        rays=np.array([[0.0, -1.0]]))
    assert sq.vrep_ri_membership(S, np.array([0.0, 0.0]))
    assert not sq.vrep_ri_membership(S, np.array([0.0, 1.0]))
    assert not sq.vrep_ri_membership(S, np.array([1.0, 0.0]))


def test_vrep_support_values():
    S = sq.GeneratorSet(1, points=np.zeros((1, 1)), rays=np.array([[-1.0]]))
    assert sq.vrep_support(S, np.array([1.0])) == 0.0
    assert sq.vrep_support(S, np.array([-1.0])) == np.inf
    # a line escapes both ways: +inf unless w is orthogonal to it
    S = sq.GeneratorSet(2, points=[[1.0, 2.0]], lines=[[1.0, -1.0]])
    assert sq.vrep_support(S, np.array([2.0, 1.0])) == np.inf
    assert sq.vrep_support(S, np.array([-2.0, 1.0])) == np.inf
    assert sq.vrep_support(S, np.array([1.0, 1.0])) == 3.0


def test_min_norm_weighted_hand_cases():
    # S = (-inf, 0]; weights scale coordinates before the norm
    S = sq.GeneratorSet(1, points=np.zeros((1, 1)), rays=np.array([[-1.0]]))
    val, z = sq.min_norm_weighted(S, np.array([0.3]), np.array([2.0]))
    assert val == pytest.approx(0.0, abs=1e-9)
    assert z[0] == pytest.approx(-0.3, abs=1e-9)
    val, z = sq.min_norm_weighted(S, np.array([-0.4]), np.array([2.0]))
    assert val == pytest.approx(0.8, abs=1e-9)
    assert abs(z[0]) <= 1e-9


def test_min_norm_weighted_on_a_badly_scaled_half_line():
    # S = (-inf, p] written as {p} + cone{r} with p ~ 2e6 and |r| ~ 1:
    # -shift lies in S, so the minimum is 0.  A least-squares KKT solve
    # whose default cutoff drops the small singular values returned
    # 2.0057e5 here, the norm at a point outside S.
    p, r = 1950466.44514992, -0.99201239
    S = sq.GeneratorSet(1, points=[[p]], rays=[[r]])
    shift, w = 312845.64697959, 0.64110338
    val, z = sq.min_norm_weighted(S, [shift], [w])
    assert val <= 1e-12 * w * shift
    assert z[0] <= p
    assert z[0] == pytest.approx(-shift, rel=1e-12)


def test_min_norm_weighted_with_more_generators_than_coordinates():
    # 4 points and 3 rays in the plane: the Gram matrix of the generators
    # is singular; then with a line in 3 dimensions, and with a zero
    # weight.  z must lie in S (an LP finds its coefficients, free on the
    # lines), no grid point may beat it, and g = w^2 (shift + z) must
    # certify it as the minimizer: <g, z> = min over S of <g, s>.
    rng = np.random.default_rng(11)
    for n, n_lines, zero_weight in [(2, 0, False)] * 5 + [(3, 1, False),
                                                         (2, 0, True)] * 3:
        S = sq.GeneratorSet(n, points=rng.standard_normal((4, n)),
                            rays=np.abs(rng.standard_normal((3, n))),
                            lines=rng.standard_normal((n_lines, n)))
        shift = 3.0 * rng.standard_normal(n)
        w = rng.uniform(0.5, 1.5, n)
        if zero_weight:
            w[rng.integers(n)] = 0.0
        val, z = sq.min_norm_weighted(S, shift, w)
        assert val == pytest.approx(np.linalg.norm(w * (shift + z)), abs=1e-12)
        K = 7 + n_lines
        coeffs = sq.lp_solve(np.zeros(K), np.append(np.zeros(7),
                                                    np.full(n_lines, -np.inf)),
                             None, A_eq=np.vstack([S.G, np.arange(K) < 4]),
                             b_eq=np.append(z, 1.0))
        assert coeffs.status is sq.LPStatus.OPTIMAL
        g = w * w * (shift + z)
        assert sq.vrep_support(S, -g) <= float(-g @ z) + 1e-9
        assert grid_min_norm(S, shift, w) >= val - 1e-9


def test_min_norm_weighted_finds_a_zero_minimum():
    # -shift is a point of S = conv(P) + cone(R), with up to 1.5 n rays
    # and points scaled by up to 100, so the minimum is 0.  A primal
    # active-set QP on the Gram matrix, whose multiplier test had a band
    # of 1e-9 (1 + max|c|), stopped up to 1.9e-5 (1 + |w o shift|) above
    # it on 7 of these draws
    for s in range(200):
        rng = np.random.default_rng(s)
        n = int(rng.choice([20, 40]))
        P = rng.standard_normal((int(rng.integers(3, 14)), n)) \
            * 10.0 ** int(rng.integers(0, 3))
        R = rng.standard_normal((int(rng.integers(n // 2, 3 * n // 2)), n))
        shift = -(rng.dirichlet(np.ones(len(P))) @ P
                  + rng.uniform(0.0, 1.0, len(R)) @ R)
        w = rng.uniform(0.0, 2.0, n)
        value, _ = sq.min_norm_weighted(sq.GeneratorSet(n, P, R), shift, w)
        assert value <= 1e-9 * (1.0 + np.linalg.norm(w * shift)), s


# Closed-form min-norm over the normal cone of a box or simplex, checked
# against an exact rational reference and against the QP on the
# generator set of the same rows.


def _normal_cone_min_norm(P, rows, shift, weights):
    """The closed form at one point, as LocalModel calls it: a one-row
    stack whose active rows are rows."""
    active = np.zeros((1, P.m_ineq), dtype=bool)
    active[0, rows] = True
    values, z = polyhedra._min_norm_normal_cone(
        P, active, np.asarray(shift, float)[None],
        np.asarray(weights, float)[None])
    return values[0], z[0]


def _exact_normal_cone_min_norm(P, rows, shift, weights):
    """min ||weights o (shift + z)|| over z in cone(rows) + span(A_eq),
    computed in rationals from the float inputs and rounded once."""
    n = P.n
    s = [Fraction(v) for v in shift]
    w2 = [Fraction(v) ** 2 for v in weights]
    col = [int(np.flatnonzero(P.A_ineq[r])[0]) for r in rows]
    if P.shape.kind == "box":
        up = {i for r, i in zip(rows, col) if P.A_ineq[r, i] > 0.0}
        down = {i for r, i in zip(rows, col) if P.A_ineq[r, i] < 0.0}
        # z_i clips -s_i into the allowed half-lines; the residual is
        # zero when -s_i lies in one of them, s_i otherwise
        return math.sqrt(sum(
            w2[i] * s[i] ** 2 for i in range(n)
            if not ((s[i] <= 0 and i in up) or (s[i] >= 0 and i in down))))
    # simplex: z = t 1 - mu with mu >= 0 on the active coordinates; on
    # each interval between breakpoints -s_i the objective in t is one
    # quadratic, minimized over the closed interval
    active = set(col)
    edges = [None] + sorted({-s[i] for i in active}) + [None]
    best = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        keep = [i for i in range(n)
                if i not in active or (hi is not None and -s[i] >= hi)]
        a = sum(w2[i] for i in keep)
        t = -sum(w2[i] * s[i] for i in keep) / a if a else Fraction(0)
        t = t if lo is None else max(t, lo)
        t = t if hi is None else min(t, hi)
        value = sum(w2[i] * (s[i] + t) ** 2 for i in keep)
        best = value if best is None else min(best, value)
    return math.sqrt(best)


def _shaped_domain(kind, n, rng):
    """A box or simplex domain written with scaled and duplicated rows,
    and a point of it with the designed activity."""
    if kind == "orthant":
        x = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.5, 2.0, n))
        return sq.Polyhedron.nonneg_orthant(n), x
    if kind == "box":
        # rows c_i x_i <= c_i u_i and -d_i x_i <= 0, the first half of
        # them written twice at another scale, and x_0 fixed at u_0 by a
        # row -x_0 <= -u_0; x at 0, inside or at u per coordinate
        u = rng.uniform(1.0, 2.0, n)
        c, d = rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n)
        A = np.vstack([np.diag(c), -np.diag(d)])
        b = np.concatenate([c * u, np.zeros(n)])
        half = np.arange(0, 2 * n, 2)
        fixed = np.zeros(n)
        fixed[0] = -1.0
        A = np.vstack([A, 3.0 * A[half], fixed])
        b = np.concatenate([b, 3.0 * b[half], [-u[0]]])
        state = rng.integers(0, 3, n)
        state[0] = 2
        x = np.where(state == 0, 0.0,
                     np.where(state == 1, rng.uniform(0.2, 0.8, n) * u, u))
        return sq.Polyhedron(n, A_ineq=A, b_ineq=b), x
    # simplex {x >= 0, sum x = total}: rows -c_i x_i <= 0, the one of x_0
    # written twice, and the equality row scaled by -2.5
    total = rng.uniform(0.5, 2.0)
    A = np.vstack([-np.diag(rng.uniform(0.1, 10.0, n)), -4.0 * np.eye(1, n)])
    support = rng.random(n) < 0.5
    support[rng.integers(0, n)] = True
    x = np.where(support, rng.uniform(0.3, 1.0, n), 0.0)
    x *= total / x.sum()
    P = sq.Polyhedron(n, A_ineq=A, b_ineq=np.zeros(n + 1),
                      A_eq=-2.5 * np.ones((1, n)), b_eq=[-2.5 * total])
    return P, x


@pytest.mark.parametrize("kind", ["orthant", "box", "simplex"])
@pytest.mark.parametrize("n", [1, 2, 5, 20, 80])
@pytest.mark.parametrize("weighting", ["ones", "random", "zeros"])
def test_normal_cone_min_norm_matches_exact_and_qp(kind, n, weighting):
    rng = np.random.default_rng([n, len(kind), len(weighting)])
    for _ in range(3):
        P, x = _shaped_domain(kind, n, rng)
        assert P.shape.kind == ("simplex" if kind == "simplex" else "box")
        rows = np.flatnonzero(P.b_ineq - P.A_ineq @ x <= 1e-8).tolist()
        shift = rng.standard_normal(n)
        w = {"ones": np.ones(n), "random": rng.uniform(0.0, 2.0, n),
             "zeros": np.where(rng.random(n) < 0.3, 0.0,
                               rng.uniform(0.0, 2.0, n))}[weighting]
        value, z = _normal_cone_min_norm(P, rows, shift, w)
        scale = 1.0 + np.linalg.norm(w * shift)
        exact = _exact_normal_cone_min_norm(P, rows, shift, w)
        assert abs(value - exact) <= 1e-14 * scale
        S = sq.GeneratorSet(n, np.zeros((1, n)), P.A_ineq[rows], P.A_eq)
        qp_value, qp_z = sq.min_norm_weighted(S, shift, w)
        assert abs(value - qp_value) <= 1e-14 * scale
        assert value == np.linalg.norm(w * (shift + z))
        assert sq.vrep_membership(S, z, 1e-12 * (1.0 + np.abs(z).max()))
        if w.all():                      # then the minimizer is unique
            assert np.abs(z - qp_z).max() <= 1e-12 * (1.0 + np.abs(shift).max())


def test_normal_cone_min_norm_where_the_qp_multiplier_band_stops_early():
    # every orthant row active: z = -(mu_0, mu_1, mu_2) with mu >= 0, so
    # the minimum is |shift_2| = 2e-6.  A primal active-set QP that drops
    # a row only when its multiplier is below -1e-9 (1 + max|c|) = -1e-6
    # keeps mu_1 = 0, whose multiplier is -9e-7, and returns a value
    # 1.9e-10 (1 + ||w o shift||) too large; min_norm_weighted has no
    # such band
    P = sq.Polyhedron.nonneg_orthant(3)
    shift, w = np.array([1e3, 9e-7, -2e-6]), np.ones(3)
    value, z = _normal_cone_min_norm(P, [0, 1, 2], shift, w)
    assert value == _exact_normal_cone_min_norm(P, [0, 1, 2], shift, w)
    assert value == 2e-6
    assert np.array_equal(z, [-1e3, -9e-7, 0.0])
    scale = 1.0 + np.linalg.norm(shift)
    qp_value, _ = sq.min_norm_weighted(
        sq.GeneratorSet(3, np.zeros((1, 3)), P.A_ineq), shift, w)
    assert abs(qp_value - value) <= 1e-14 * scale


def test_normal_cone_min_norm_simplex_hand_cases():
    P = sq.Polyhedron.standard_simplex(3)
    # x = (1, 0, 0): z = t 1 - mu on coordinates 1, 2 absorbs any shift
    # with shift_0 <= shift_1, shift_2
    value, z = _normal_cone_min_norm(P, [1, 2], [1.0, 3.0, 2.0], np.ones(3))
    assert value == 0.0 and np.array_equal(z, [-1.0, -3.0, -2.0])
    # nothing active: z = t 1 with t = -mean(shift)
    value, z = _normal_cone_min_norm(P, [], [1.0, 2.0, 6.0], np.ones(3))
    assert np.array_equal(z, [-3.0, -3.0, -3.0])
    assert value == pytest.approx(np.sqrt(4.0 + 1.0 + 9.0), rel=1e-15)
    # every weight zero: t = 0, value 0
    value, z = _normal_cone_min_norm(P, [1], [1.0, 2.0, 6.0], np.zeros(3))
    assert value == 0.0 and np.array_equal(z, [0.0, -2.0, 0.0])
    # the free coordinate weighs nothing: the objective is flat from the
    # largest breakpoint, 2, on, and t = 2 zeroes both active residuals
    value, z = _normal_cone_min_norm(P, [1, 2], [5.0, -1.0, -2.0],
                                     [0.0, 1.0, 1.0])
    assert value == 0.0 and np.array_equal(z, [2.0, 1.0, 2.0])


def test_normal_cone_min_norm_box_zero_weight_gets_zero():
    # x = (1, 0) on [0, 1]^2: z_0 >= 0 and z_1 <= 0; weight 0 on
    # coordinate 0 leaves z_0 = 0 (the QP pins that ray to 0 too)
    P = sq.Polyhedron.box([0.0, 0.0], [1.0, 1.0])
    value, z = _normal_cone_min_norm(P, [0, 3], [-1.0, 2.0], [0.0, 1.0])
    assert value == 0.0 and np.array_equal(z, [0.0, -2.0])


@pytest.mark.parametrize("kind", ["orthant", "box", "simplex"])
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_stacked_closed_forms_match_one_row_calls(kind, n):
    # a stack of 12 points on one domain: random active rows (none on
    # the first), random weights with zeros (all zero on the second)
    rng = np.random.default_rng([n, len(kind), 11])
    P, _ = _shaped_domain(kind, n, rng)
    N = 12
    active = rng.random((N, P.m_ineq)) < 0.5
    active[0] = False
    shift = rng.standard_normal((N, n)) * rng.uniform(1e-3, 1e3, (N, 1))
    w = np.where(rng.random((N, n)) < 0.3, 0.0, rng.uniform(0.0, 2.0, (N, n)))
    w[1] = 0.0
    values, Z = polyhedra._min_norm_normal_cone(P, active, shift, w)
    for i in range(N):
        value, z = _normal_cone_min_norm(P, np.flatnonzero(active[i]),
                                         shift[i], w[i])
        assert value == values[i] and np.array_equal(z, Z[i])
    if kind == "simplex":
        X = shift
        stacked = polyhedra._project_simplex(X, P.shape.total)
        for x, z in zip(X, stacked):
            assert np.array_equal(z, sq.project_onto_polyhedron(P, x))
            assert np.array_equal(
                z, polyhedra._project_simplex(x[None], P.shape.total)[0])


# Closed-form projections: boxes (the orthant included) and simplices are
# read off the rows and projected without the active-set QP, which stays
# the reference here, started cold from the zero-objective LP's vertex.

def _lp_start(P):
    """The zero-objective LP's witness, a start for the primal QP that
    owes nothing to the projection it judges."""
    out = sq.lp_solve(np.zeros(P.n), None, None, P.A_eq, P.b_eq,
                      P.A_ineq, P.b_ineq)
    assert out.status is sq.LPStatus.OPTIMAL
    return out.witness


def _box_rows(rng, n):
    """A box with negative bounds and, where a bound row is left out
    (probability 0.3), infinite ones.  Every bound row is scaled; one in
    five is written twice, and one coordinate in five gets an extra,
    looser upper row."""
    lo = rng.uniform(-3.0, 1.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    rows, rhs = [], []

    def add(i, coef, bound):
        row = np.zeros(n)
        row[i] = coef
        rows.append(row)
        rhs.append(coef * bound)

    for i in range(n):
        for bound, sign in ((lo[i], -1.0), (hi[i], 1.0)):
            if rng.random() < 0.3:
                continue
            for _ in range(1 + int(rng.random() < 0.2)):
                add(i, sign * rng.uniform(0.5, 4.0), bound)
        if rng.random() < 0.2:
            add(i, rng.uniform(0.5, 4.0), hi[i] + 1.0)
    return sq.Polyhedron(n, A_ineq=np.array(rows), b_ineq=np.array(rhs))


def _orthant(rng, n):
    return sq.Polyhedron.nonneg_orthant(n)


def _scaled_simplex(rng, n):
    """c 1'x = t with every -e_i row scaled and some duplicated."""
    c = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    t = c * float(rng.uniform(0.2, 5.0))
    idx = np.concatenate([np.arange(n), rng.integers(0, n, n // 2 + 1)])
    A = np.zeros((idx.size, n))
    A[np.arange(idx.size), idx] = -rng.uniform(0.5, 3.0, idx.size)
    return sq.Polyhedron(n, A_ineq=A, b_ineq=np.zeros(idx.size),
                         A_eq=np.full((1, n), c), b_eq=[t])


@pytest.mark.parametrize("n", [1, 2, 5, 20, 80])
@pytest.mark.parametrize("make, kind", [(_orthant, "box"), (_box_rows, "box"),
                                        (_scaled_simplex, "simplex")])
def test_closed_form_projection_matches_qp(make, kind, n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        P = make(rng, n)
        assert P.shape.kind == kind
        x = 3.0 * rng.standard_normal(n)
        z = sq.project_onto_polyhedron(P, x)
        ref = _qp_active_set(np.eye(n), -x, P.A_eq, P.b_eq, P.A_ineq,
                             P.b_ineq, _lp_start(P))
        scale = 1.0 + np.linalg.norm(x)
        assert np.max(np.abs(z - ref)) <= 1e-9 * scale
        assert P.max_violation(z) <= 1e-12 * scale
        assert np.max(np.abs(sq.project_onto_polyhedron(P, z) - z)) \
            <= 1e-12 * scale


def test_box_shape_reads_the_tightest_rows():
    P = sq.Polyhedron(2, A_ineq=[[-2.0, 0.0], [-1.0, 0.0], [0.0, 3.0],
                                 [0.0, 1.0]], b_ineq=[2.0, -0.5, 3.0, 4.0])
    assert P.shape.kind == "box"
    assert np.array_equal(P.shape.lower, [0.5, -np.inf])
    assert np.array_equal(P.shape.upper, [np.inf, 1.0])
    assert np.array_equal(sq.project_onto_polyhedron(P, [-7.0, 9.0]),
                          [0.5, 1.0])
    empty = sq.Polyhedron(1, A_ineq=[[1.0], [-1.0]], b_ineq=[0.0, -1.0])
    assert empty.shape.kind == "box"
    with pytest.raises(sq.InfeasiblePolyhedron):
        sq.project_onto_polyhedron(empty, np.zeros(1))


def _h_polyhedron(rng, n):
    """Box rows plus n random rows, feasible at an interior point."""
    lo, hi = rng.uniform(-3.0, -1.0, n), rng.uniform(1.0, 3.0, n)
    z0 = rng.uniform(-0.5, 0.5, n)
    A = rng.standard_normal((n, n))
    eye = np.eye(n)
    return sq.Polyhedron(n, np.vstack([eye, -eye, A]),
                         np.concatenate([hi, -lo, A @ z0
                                         + rng.uniform(0.05, 1.0, n)]))


def _simplex_missing_a_row(rng, n):
    P = sq.Polyhedron.standard_simplex(n)
    return sq.Polyhedron(n, P.A_ineq[1:], P.b_ineq[1:], P.A_eq, P.b_eq)


@pytest.mark.parametrize("make", [_h_polyhedron, _simplex_missing_a_row])
def test_general_polyhedra_use_the_qp(monkeypatch, make):
    # the dual active-set projection, started at x: no feasibility LP and
    # no primal QP
    calls = _counted(monkeypatch, "_dual_projection")
    lps = _recorded_lps(monkeypatch)
    primal = _counted(monkeypatch, "_qp_active_set", oracles)
    rng = np.random.default_rng(5)
    P = make(rng, 10)
    assert P.shape.kind == "general"
    x = 4.0 * rng.standard_normal(10)
    z = sq.project_onto_polyhedron(P, x)
    assert (len(calls), len(lps), len(primal)) == (1, 0, 0)
    assert P.max_violation(z) <= 1e-9


def _primal_projection(P, x):
    """The primal active-set QP with the identity Hessian, as a matrix,
    started at _lp_start(P): the reference of the dual projection."""
    return _qp_active_set(np.eye(P.n), -x, P.A_eq, P.b_eq, P.A_ineq,
                          P.b_ineq, _lp_start(P))


def _assert_projection(P, x, z, ref):
    """z within 1e-9 (1 + |x|) of ref, feasible to 1e-12 of that scale,
    and x - z in the cone of the rows active at z: nonnegative
    multipliers on the inequality rows, free ones on the equalities."""
    scale = 1.0 + np.linalg.norm(x)
    assert np.max(np.abs(z - ref)) <= 1e-9 * scale
    assert P.max_violation(z) <= 1e-12 * scale
    act = P.A_ineq[P.b_ineq - P.A_ineq @ z <= 1e-9 * scale]
    rows = np.vstack([act, P.A_eq])
    mult = np.linalg.lstsq(rows.T, x - z, rcond=None)[0]
    assert np.max(np.abs(rows.T @ mult - (x - z))) <= 1e-9 * scale
    assert mult[:len(act)].min(initial=0.0) >= -1e-9 * scale


@pytest.mark.parametrize("n", [2, 5, 10, 20, 40, 80])
@pytest.mark.parametrize("make", [_h_polyhedron, _simplex_missing_a_row])
def test_range_space_projection_matches_the_augmented_kkt_path(make, n):
    # the dual projection factors its working rows (their range space);
    # the primal QP, given the identity as a matrix, solves augmented
    # (n + k) x (n + k) KKT systems from the LP's vertex
    rng = np.random.default_rng(2000 + n)
    for _ in range(3):
        P = make(rng, n)
        x = 4.0 * rng.standard_normal(n)
        _assert_projection(P, x, sq.project_onto_polyhedron(P, x),
                           _primal_projection(P, x))


def test_projection_onto_duplicated_rescaled_rows(monkeypatch):
    # 60 of the 120 rows written again, scaled by 1e-3 to 1e3: started at
    # the LP's vertex, the primal QP with the identity solved in
    # the range space of its working rows ran out of its iteration budget
    # in about 0.5 s.  The copies leave the set as it was, so the primal
    # QP on the rows without them is the reference, and the dual
    # projection, which never adds a copy, takes as many iterations on
    # either.
    rng = np.random.default_rng(7040)
    n = 40
    P = _h_polyhedron(rng, n)
    x = 4.0 * rng.standard_normal(n)
    idx = rng.choice(3 * n, 60, replace=False)
    c = 10.0 ** rng.uniform(-3.0, 3.0, 60)
    doubled = sq.Polyhedron(n, np.vstack([P.A_ineq, c[:, None] * P.A_ineq[idx]]),
                            np.concatenate([P.b_ineq, c * P.b_ineq[idx]]))
    steps = _counted(monkeypatch, "_orthogonal_part")
    z = sq.project_onto_polyhedron(doubled, x)
    assert len(steps) == 41
    sq.project_onto_polyhedron(P, x)
    assert len(steps) == 2 * 41
    _assert_projection(doubled, x, z, _primal_projection(P, x))


def test_projection_with_a_redundant_equality_row():
    # the third equality row is the sum of the first two: it is checked,
    # not added, and the projection matches the primal QP on all three
    rng = np.random.default_rng(41)
    n = 8
    P = _h_polyhedron(rng, n)
    E = rng.standard_normal((2, n))
    z0 = rng.uniform(-0.3, 0.3, n)
    E = np.vstack([E, E[0] + E[1]])
    P = sq.Polyhedron(n, P.A_ineq, P.b_ineq, E, E @ z0)
    for _ in range(5):
        x = 4.0 * rng.standard_normal(n)
        z = sq.project_onto_polyhedron(P, x)
        _assert_projection(P, x, z, _primal_projection(P, x))
        assert np.max(np.abs(E @ z - E @ z0)) <= 1e-12 * (1.0 + np.linalg.norm(x))


@pytest.mark.parametrize("P", [
    # x1 + x2 <= -1 against x1, x2 >= 0
    sq.Polyhedron(2, [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [-1.0, 0.0, 0.0]),
    # two parallel equality rows, 0 and 1 apart
    sq.Polyhedron(2, [[1.0, 1.0]], [5.0], [[1.0, -1.0], [2.0, -2.0]],
                  [0.0, 2.0]),
    # a zero row with a negative right-hand side
    sq.Polyhedron(2, [[1.0, 1.0], [0.0, 0.0]], [1.0, -1.0]),
    # a general polyhedron in R^3 cut off by a row of the opposite sign
    sq.Polyhedron(3, [[1.0, 2.0, 3.0], [-2.0, -4.0, -6.0], [1.0, -1.0, 0.0]],
                  [1.0, -3.0, 4.0]),
    # the same two cases 1e-9 apart: far more than the rounding off x
    sq.Polyhedron(2, [[1.0, 1.0]], [5.0], [[1.0, -1.0], [2.0, -2.0]],
                  [0.0, 2e-9]),
    sq.Polyhedron(3, [[1.0, 2.0, 3.0], [-2.0, -4.0, -6.0], [1.0, -1.0, 0.0]],
                  [1.0, -2.0 - 2e-9, 4.0]),
], ids=["orthant-cut", "parallel-equalities", "zero-row", "opposite-rows",
        "parallel-equalities-1e-9-apart", "opposite-rows-1e-9-apart"])
def test_projection_onto_an_empty_polyhedron_raises(P):
    assert P.shape.kind == "general"
    with pytest.raises(sq.InfeasiblePolyhedron,
                       match="^polyhedron has no feasible point$"):
        sq.project_onto_polyhedron(P, np.ones(P.n))


def _degenerate_vertices(count, seed=7):
    """(P, x, v): P has n + 1 to n + 3 random rows, every one tight at v,
    and x = v + s A' lam with lam >= 0, so v is the projection of x.  s
    ranges over 1 to 1e4: the steps off x leave rounding of order
    1e-16 |x| on the dependent rows at v."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n)
        A = rng.standard_normal((n + int(rng.integers(1, 4)), n))
        lam = rng.uniform(0.0, 1.0, A.shape[0])
        s = 10.0 ** int(rng.integers(0, 5))
        yield sq.Polyhedron(n, A, A @ v), v + s * (A.T @ lam), v


def _duplicated_equality_rows(count, seed=5):
    """(P, x, v): P is {a z = a v} in R^3, its row given twice, once
    rescaled, and x = v + s a for s from 1 to 1e6, so v is the
    projection of x."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.standard_normal(3)
        a = rng.standard_normal(3)
        E = np.array([a, rng.uniform(0.1, 10.0) * a])
        s = 10.0 ** int(rng.integers(0, 7))
        yield sq.Polyhedron(3, A_eq=E, b_eq=E @ v), v + s * a, v


@pytest.mark.parametrize("draws", [
    lambda: _degenerate_vertices(500),
    lambda: _duplicated_equality_rows(200),
], ids=["degenerate-vertex", "duplicated-equality-row"])
def test_projection_meets_dependent_rows_up_to_the_rounding_off_x(draws):
    # a row that depends on the working rows is left violated by the
    # rounding of the steps off x, far above eps |v|: it is met, not a
    # proof that P is empty
    for P, x, v in draws():
        assert P.shape.kind == "general"
        z = sq.project_onto_polyhedron(P, x)
        assert np.max(np.abs(z - v)) <= 1e-12 * (1.0 + np.max(np.abs(x)))


@pytest.mark.parametrize("P, x", [
    (sq.Polyhedron(3, [[1.0, 2.0, -1.0], [-1.0, 0.0, 0.0]], [4.0, 0.0]),
     [0.3, 1.1, 2.0]),
    # on the simplex missing a row, its equality row holds to roundoff
    (_simplex_missing_a_row(None, 3), [0.5, 0.25, 0.25]),
    # the orthant made general by one redundant dense row: the primal
    # QP's multiplier band, 1e-9 (1 + max|x|), held x_2 = 1.3e-9 at 0
    (sq.Polyhedron(2, [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 10.0]),
     [1.0, 1.3e-9]),
])
def test_projection_returns_a_feasible_x_bit_for_bit(P, x):
    assert P.shape.kind == "general"
    x = np.array(x)
    assert np.array_equal(sq.project_onto_polyhedron(P, x), x)


@pytest.mark.parametrize("P", [sq.Polyhedron.nonneg_orthant(3),
                               sq.Polyhedron.standard_simplex(3),
                               sq.Polyhedron(3, A_ineq=[[1.0, 1.0, 1.0]],
                                             b_ineq=[1.0])])
def test_projection_rejects_a_wrong_length_start(P):
    with pytest.raises(sq.DimensionMismatch):
        sq.project_onto_polyhedron(P, np.zeros(3), start=np.zeros(2))


def _counted(monkeypatch, name, module=polyhedra):
    """The argument tuples of every call of module.<name>."""
    calls = []
    kernel = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# The primal active-set QP: one KKT solve per iteration, by LU unless the
# working-set system is singular.  The dual projection: one
# _orthogonal_part per iteration.

def _counted_kkt_solves(monkeypatch):
    calls = []

    def counted(H, c, act, b_act):
        calls.append(act.copy())
        return kkt_solve(H, c, act, b_act)

    kkt_solve = oracles._kkt_solve
    monkeypatch.setattr(oracles, "_kkt_solve", counted)
    return calls


def test_qp_iteration_counts_on_a_general_polyhedron(monkeypatch):
    # the dual projection's iterations, cold and on a nearby point (the
    # start it is given has no effect), and no KKT solve
    steps = _counted(monkeypatch, "_orthogonal_part")
    kkt = _counted(monkeypatch, "_kkt_solve", oracles)
    P, v, rng = _pinned_draw(40)
    z = sq.project_onto_polyhedron(P, 4.0 * v)
    cold = len(steps)
    z_warm = sq.project_onto_polyhedron(
        P, 4.0 * v + 0.1 * rng.standard_normal(40), start=z)
    assert (cold, len(steps) - cold, len(kkt)) == _PROJECTION_STEPS
    assert (_digest(z.tobytes()), _digest(z_warm.tobytes())) \
        == _PROJECTION_PINS
    assert P.max_violation(z) <= 1e-9 and P.max_violation(z_warm) <= 1e-9


def test_qp_with_dependent_active_rows_matches_the_closed_form(monkeypatch):
    # the rotated box Q [-1, 1]^3 with every upper row written twice (once
    # scaled) and a redundant row.  The primal QP started at the corner
    # Q (1, 1, 1) put each pair of duplicates in its first working set
    # and needed least squares for the singular KKT systems; the dual
    # projection adds a copy only when it is violated beyond roundoff,
    # which its twin, once added, rules out, so it calls no lstsq.
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        lstsq_calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rng = np.random.default_rng(13)
    for _ in range(5):
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        c = rng.uniform(0.5, 4.0)
        P = sq.Polyhedron(3, np.vstack([Q.T, c * Q.T, -Q.T, np.ones((1, 3))]),
                          np.concatenate([np.ones(3), np.full(3, c),
                                          np.ones(3), [10.0]]))
        assert P.shape.kind == "general"
        x = 3.0 * rng.standard_normal(3)
        z = sq.project_onto_polyhedron(P, x, start=Q @ np.ones(3))
        assert np.max(np.abs(z - Q @ np.clip(Q.T @ x, -1.0, 1.0))) <= 1e-12
    assert not lstsq_calls


def test_qp_ratio_test_blocks_at_the_smallest_tied_index(monkeypatch):
    # from 0 toward (2, 2), rows 1, 2 and 3 block at steps within 1e-13
    # of 0.5 (row 2's a little shorter); row 0 recedes.  The smallest
    # tied index, row 1, enters the working set.
    calls = _counted_kkt_solves(monkeypatch)
    A = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0 - 2e-14, 2.0])
    z = _qp_active_set(np.eye(2), -np.array([2.0, 2.0]), np.zeros((0, 2)),
                       np.zeros(0), A, b, np.zeros(2))
    assert np.array_equal(calls[0], np.zeros((0, 2)))
    assert np.array_equal(calls[1], A[[1]])
    assert np.max(np.abs(z - [1.0, 1.0 - 2e-14])) <= 1e-15


# The bounded-variable simplex: rows with one nonzero become bounds, and
# a variable with two finite bounds reaches the upper one by a bound flip.

def _bounds_lp(rng, n):
    """An LP at a feasible point z0 whose variables are bounded in every
    way: two-sided (by lower/upper, or by singleton rows, one of them
    written twice and scaled), fixed by two scaled rows, and upper-only;
    two random rows and -1'z <= -1'z0 + 1 keep it bounded.  Returns c,
    the lp_solve arguments and the Polyhedron of all its constraints."""
    z0 = rng.uniform(-1.0, 1.0, n)
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    rows, rhs = [], []

    def add(i, coef, bound):
        rows.append(np.eye(n)[i] * coef)
        rhs.append(coef * bound)

    for i, kind in enumerate(rng.permutation(4)[:n]):
        lo = z0[i] - rng.uniform(0.1, 2.0)
        hi = z0[i] + rng.uniform(0.1, 2.0)
        if kind == 0:
            lower[i], upper[i] = lo, hi
        elif kind == 1:
            add(i, -rng.uniform(0.5, 4.0), lo)
            add(i, rng.uniform(0.5, 4.0), hi)
            add(i, rng.uniform(0.5, 4.0), hi)
        elif kind == 2:
            add(i, -rng.uniform(0.5, 4.0), z0[i])
            add(i, rng.uniform(0.5, 4.0), z0[i])
        else:
            upper[i] = hi
    for a in (rng.standard_normal((2, n)), -np.ones((1, n))):
        for row in a:
            rows.append(row)
            rhs.append(row @ z0 + rng.uniform(0.1, 1.0))
    A, b = np.array(rows), np.array(rhs)
    bound_rows = [(np.eye(n)[i], upper[i]) for i in range(n)
                  if np.isfinite(upper[i])]
    bound_rows += [(-np.eye(n)[i], -lower[i]) for i in range(n)
                   if np.isfinite(lower[i])]
    P = sq.Polyhedron(n, np.vstack([A] + [r for r, _ in bound_rows]),
                      np.concatenate([b, [v for _, v in bound_rows]]))
    args = dict(lower=lower, upper=upper, A_ineq=A, b_ineq=b)
    return rng.standard_normal(n), args, P


@pytest.mark.parametrize("n", [3, 4])
def test_lp_with_bounds_matches_vertex_enumeration(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(40):
        c, args, P = _bounds_lp(rng, n)
        out = sq.lp_solve(c, **args)
        assert out.status is sq.LPStatus.OPTIMAL
        best = float(np.max(enumerate_vertices(P) @ c))
        assert abs(out.value - best) <= 1e-9 * (1.0 + abs(best))
        assert out.duality_gap <= 1e-9 * (1.0 + abs(out.value))
        assert P.max_violation(out.witness) <= 1e-9


def test_bounds_crossed_by_rounding_fix_the_variable():
    # the domain of a certify pool record: three rows pin x to one value,
    # and the lower bound they give exceeds the upper one by 1.1e-16
    A = np.array([[1.486135670502081], [0.5988863835971743],
                  [-0.1938330739189284], [-0.8982845452172993],
                  [0.5646955578162424], [-1.0]])
    b = np.array([1.722718195668962, 0.5873581841565544,
                  -0.19010190487664003, -0.8809931128599776,
                  1.2579322303553755, 0.0])
    assert np.max(b[2:4] / A[2:4, 0]) > b[1] / A[1, 0]
    P = sq.Polyhedron(1, A, b)
    assert P.shape.kind == "box"
    assert P.shape.lower[0] == P.shape.upper[0]
    point = P.shape.lower
    assert np.array_equal(sq.project_onto_polyhedron(P, [5.0]), point)
    for c in ([1.0], [-1.0], [0.0]):
        out = sq.lp_solve(c, A_ineq=A, b_ineq=b)
        assert out.status is sq.LPStatus.OPTIMAL
        assert np.array_equal(out.witness, point)
    assert np.array_equal(sq.feasible_point(P), point)
    fixed = sq.lp_solve([1.0], lower=[1.0], upper=[1.0 - 1e-16])
    assert fixed.status is sq.LPStatus.OPTIMAL and fixed.witness[0] == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(A_ineq=[[0.0, 0.0]], b_ineq=[-1.0]),
    dict(A_ineq=[[0.0, 0.0], [1.0, 1.0]], b_ineq=[-1.0, 1.0]),
    dict(lower=[0.0, 1.0], upper=[1.0, 1.0 - 1e-6]),
    dict(A_ineq=[[2.0, 0.0], [-3.0, 0.0]], b_ineq=[2.0, -3.0 - 3e-6]),
    dict(lower=[0.0, 0.0], A_ineq=[[0.0, 1.0]], b_ineq=[-1e-6]),
])
def test_lp_infeasible_rows_and_bounds(kwargs):
    out = sq.lp_solve(np.ones(2), **kwargs)
    assert out.status is sq.LPStatus.INFEASIBLE
    assert out.value == -np.inf


@pytest.mark.parametrize("c, kwargs", [
    ([1.0], dict(lower=[np.inf], upper=[np.inf])),
    ([-1.0], dict(lower=[np.inf])),
    ([1.0], dict(upper=[-np.inf])),
])
def test_lp_infinite_bounds_on_the_wrong_side_are_empty(c, kwargs):
    # z >= +inf and z <= -inf admit no real z; read as "no bound" they
    # gave UNBOUNDED
    out = sq.lp_solve(c, **kwargs)
    assert out.status is sq.LPStatus.INFEASIBLE
    assert out.value == -np.inf


def test_lp_bound_flip_wins_a_ratio_tie_by_its_index():
    # The row x0 - 2 x1 - x2 + x3 = 2 is an equality, so phase 1 starts
    # with the artificial x4 basic in it.  Phase 1 enters x0, which the
    # row stops at 2, as does its own upper bound.  Among the tied
    # variables Bland's rule takes the smallest index, x0 itself, so x0
    # flips to its bound without a pivot; x3 then replaces the
    # artificial, and phase 2 flips x1 and x2 to their bounds: one pivot
    # in all.  Leaving the tie to the artificial costs three.
    out = sq.lp_solve([0.0, 2.0, 1.0, 0.0], lower=np.zeros(4),
                      upper=[2.0, 1.0, 2.0, np.inf],
                      A_eq=[[1.0, -2.0, -1.0, 1.0]], b_eq=[2.0])
    assert out.status is sq.LPStatus.OPTIMAL
    assert np.array_equal(out.witness, [2.0, 1.0, 2.0, 4.0])
    assert out.pivots == 1


def test_lp_with_a_feasible_slack_basis_skips_phase_1():
    # b > 0 and no bound on z: the slack basis is feasible at z = 0, so
    # phase 1 has no artificial, and a zero objective leaves phase 2
    # nothing to do
    rng = np.random.default_rng(7)
    P = sq.Polyhedron(20, rng.standard_normal((60, 20)),
                      rng.uniform(0.1, 1.0, 60))
    assert P.shape.kind == "general"
    out = sq.lp_solve(np.zeros(20), A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    assert out.pivots == 0
    assert np.array_equal(out.witness, np.zeros(20))


def test_lp_terminates_on_beales_cycling_example():
    # Beale (1955): with the largest-coefficient rule the simplex cycles
    # at the degenerate start.  Written with explicit slacks (equality
    # rows, no bound to read) and with x6 <= 1 as a singleton row (a
    # bound); either way the simplex reaches the optimum -5/4 at
    # x4 = x6 = 1.  The slack form leaves the cycle by its first
    # nondegenerate step: 6 pivots (9 under Bland's rule alone).  The
    # bound form cycles under Dantzig's rule for the 50 degenerate
    # steps that _BLAND_AFTER allows, then Bland's rule leaves the cycle
    # within 4 more: 54 pivots (6 under Bland's rule alone), so the
    # fallback is what ends it.
    cost = np.array([-0.75, 20.0, -0.5, 6.0])
    rows = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                     [0.0, 0.0, 1.0, 0.0]])
    rhs = np.array([0.0, 0.0, 1.0])
    slack = sq.lp_solve(np.concatenate([np.zeros(3), -cost]),
                        lower=np.zeros(7), A_eq=np.hstack([np.eye(3), rows]),
                        b_eq=rhs)
    bound = sq.lp_solve(-cost, lower=np.zeros(4), A_ineq=rows, b_ineq=rhs)
    for out, x in ((slack, slack.witness[3:]), (bound, bound.witness)):
        assert out.status is sq.LPStatus.OPTIMAL
        assert out.value == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert polyhedra._BLAND_AFTER == 50
    assert (slack.pivots, bound.pivots) == (6, 54)


def _recorded_lps(monkeypatch):
    outcomes = []
    lp_solve = polyhedra.lp_solve

    def recorded(*args, **kwargs):
        outcomes.append(lp_solve(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(polyhedra, "lp_solve", recorded)
    return outcomes


def test_ri_lp_keeps_its_witness_bit_for_bit(monkeypatch):
    # The relative-interior LP has no singleton row and no two-sided
    # bound.  Its witness is the vertex the simplex's pricing reaches
    # from the slack basis, pinned bit for bit, and so is its 6 pivots
    # (10 when phase 1 put an artificial on every row).
    outcomes = _recorded_lps(monkeypatch)
    rng = np.random.default_rng(11)
    points, rays = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    z = np.full(3, 1.0 / 3.0) @ points + np.full(2, 0.5) @ rays
    assert sq.vrep_ri_membership(sq.GeneratorSet(4, points, rays), z)
    (out,) = outcomes
    pinned = ["0x1.5555555555555p-2", "0x1.5555555555556p-2",
              "0x1.5555555555554p-2", "0x1.0000000000003p-1",
              "0x1.ffffffffffffdp-2", "0x1.5555555555555p-2"]
    assert [float(v).hex() for v in out.witness] == pinned
    assert out.pivots == 6


@pytest.mark.parametrize("seed, pivots", [(4, 100), (21, 121), (33, 112)],
                         ids=["4", "21", "33"])
def test_ri_lp_at_a_barycentre_in_r80_never_steps_behind_0(monkeypatch, seed,
                                                          pivots):
    # The n = 80 barycentre query of the kernel benchmark: 3 points and
    # 40 rays, every coefficient 1/3.  Phase 1 from all artificials
    # stopped with "phase-1 simplex reported unbounded" after 439 pivots
    # (seed 21), some of whose steps were as negative as -4.3.  From the
    # slack basis, a ratio test that let a basic value rounded below 0
    # set a negative ratio stepped backwards on 5,878 of the 12,600
    # pivots its iteration budget allows, and ran out.  Blocked at 0,
    # the ratio leaves only the rounding that the leaving row's value
    # carries in the step the pivot takes.  Under Bland's rule alone
    # the three queries took 323, 220 and 384 pivots, and seeds 4 and 33
    # stepped back by -1.5e-8 and -3.3e-7; priced by Dantzig's rule, no
    # step is below -5.3e-11.
    steps = []
    pivot = polyhedra._pivot

    def watched(T, var, basis, row, col, work):
        steps.append(T[row, -1] / T[row, col])
        pivot(T, var, basis, row, col, work)

    monkeypatch.setattr(polyhedra, "_pivot", watched)
    rng = np.random.default_rng(seed)
    points, rays = rng.standard_normal((3, 80)), rng.standard_normal((40, 80))
    z = np.full(3, 1.0 / 3.0) @ points + np.full(40, 1.0 / 3.0) @ rays
    assert sq.vrep_ri_membership(sq.GeneratorSet(80, points, rays), z)
    assert len(steps) == pivots
    assert min(steps) >= -1e-9


# Relative-interior queries at 0 of two subdifferentials of a pieces
# instance rescaled by 1e-6: one point generator of norm about 1e-6
# beside domain rays of norm about 1.  A pivot on the tiny point entry
# leaves about 4.7e-10 of rounding in tableau entries that are exactly
# 0, past the pivot tolerance, and one such entry gave an unblocked
# column a reduced cost of -4.7e-10: the LP read as unbounded.  Priced
# from its column solved against the basis, that reduced cost is 0.
_RI_TINY_POINT = {
    "2d": ([[-2.0532535341145105e-07, 3.3281384502671219e-06]],
           [[-8.8438443514844631e-02, -6.5107946281779361e-01],
            [9.9495625480152139e-01, 7.7761447709766862e-01],
            [-2.1170608691921493e+00, 1.2041759994752052e-02],
            [-1.0, 0.0]]),
    "4d": ([[1.5936827066825129e-06, 9.2051259634460336e-07,
             4.1385410440868469e-07, -2.9359016676261453e-06]],
           [[8.8525455922554619e-01, -9.0588487386944305e-01,
             7.8016883096706457e-01, 7.1935542925418627e-01],
            [2.4834610630263323e-01, -2.0121155969496790e-01,
             -2.5515899898759942e-01, -4.7321770544905245e-01],
            [4.6696512007710594e-01, 4.0522387301843460e-01,
             1.7485916574063562e-01, 5.0775449163676922e-01],
            [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
}


@pytest.mark.parametrize("name", sorted(_RI_TINY_POINT))
def test_ri_lp_with_a_tiny_point_generator_is_not_unbounded(monkeypatch,
                                                            name):
    points, rays = _RI_TINY_POINT[name]
    n = len(points[0])
    outcomes = _recorded_lps(monkeypatch)
    assert sq.vrep_ri_membership(sq.GeneratorSet(n, points, rays), np.zeros(n))
    (out,) = outcomes
    # every coefficient can be 1: the point's weight is 1, and the rays'
    # combination is 0 with all weights 1 up to the point's own share
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_lp_pivot_count_on_a_general_polyhedron():
    # 3,010 pivots when the box rows were tableau rows, 1,479 when
    # phase 1 put an artificial on every row, 1,341 under Bland's rule
    # alone
    rng = np.random.default_rng(5)
    P = _h_polyhedron(rng, 80)
    c = rng.standard_normal(80)
    out = sq.lp_solve(c, A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    assert out.status is sq.LPStatus.OPTIMAL
    assert out.pivots == 324
    assert P.max_violation(out.witness) <= 1e-9
    assert out.duality_gap <= 1e-9 * (1.0 + abs(out.value))


# SHA-256 pins of the kernels' outcomes.  The simplex and the active-set
# QP are deterministic to the bit: a faster kernel must reproduce every
# status, value, witness, dual value and pivot count, every projection
# and every weighted min-norm below.  The LP pins were re-recorded when
# the simplex began to price by Dantzig's rule; each new outcome was
# checked for feasibility and duality gap to 1e-9, and at n = 10 against
# the best of the draw's 6,253 vertices.

def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _lp_digest(out):
    witness = None if out.witness is None else out.witness.tobytes()
    return _digest(out.status, repr(out.value), witness,
                   repr(out.dual_value), out.pivots)


def _pinned_draw(n):
    """A general polyhedron of 3n rows and a random vector, as drawn by
    test_lp_pivot_count_on_a_general_polyhedron."""
    rng = np.random.default_rng(5)
    P = _h_polyhedron(rng, n)
    return P, rng.standard_normal(n), rng


_LP_PINS = {
    10: ("a80aacc38c49e690f6680fba12de110a62a684bd76063e35e11d58b4b8fa84f9",
         "a1fa2b58e2d34ed0410f82599f3a09c9e66895ecfb901a55b19f39d44674aa0c"),
    20: ("f87f046feefe662187d3ce3da4e8431f3d3fe4e3f9a28c342b1f7f5b74d84afc",
         "e97a095b061a5333247db22c4b86e191477f0dfc81eca293ee59b10b7b83f3c3"),
    40: ("ea18e154d6e7bba2a3e3f7cffbc4b33cf927973f0c815d72fc2efa68578f45a9",
         "4d10e0b69f2cba7a835aca34de5ae9023c34deae933b102cdce55cc32e656a46"),
    80: ("f8d4aa942c913e76d9c3c722bcdd98d9d4e5795dfd0349e2fad11dd8dd83a32d",
         "0529bc8cf6cc3824e0244cac460ea58b4c753763e0475b5e2da26bb100d6daf2"),
}
_RI_PIN = "0965bcbf88217f1d65eff9ff8efae8fad68375afd82ce07c1edaf8b30ec2dd38"
# the dual projection's iterations, cold and on a nearby point, and the
# KKT solves (the primal QP took 144 and 1, the second from its start)
_PROJECTION_STEPS = (33, 33, 0)
_PROJECTION_PINS = (
    "10f5973ff6795bb95fdd3893f72bac5f1408e2ee40a87639cd10da46111663ed",
    "86392d1564f7461109ff30753c7eb039f8546f96e53b5799b666810c652d0ab0")
_MIN_NORM_PIN = \
    "cd47db73d6b5d8c2ced119f094526d0e6a302385df9e8bf5b6ea067d58796e30"


@pytest.mark.parametrize("n", sorted(_LP_PINS))
def test_lp_outcomes_match_their_pins(n):
    # the second pin is the zero-objective LP, phase 1 alone
    P, c, _ = _pinned_draw(n)
    out = sq.lp_solve(c, A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    feasible = sq.lp_solve(np.zeros(n), A_ineq=P.A_ineq, b_ineq=P.b_ineq)
    assert (_lp_digest(out), _lp_digest(feasible)) == _LP_PINS[n]


def test_ri_lp_with_fewer_generators_than_coordinates_matches_its_pin(
        monkeypatch):
    outcomes = _recorded_lps(monkeypatch)
    rng = np.random.default_rng(23)
    points, rays = rng.standard_normal((3, 12)), rng.standard_normal((6, 12))
    lam = rng.uniform(0.2, 1.0, 3)
    z = lam / lam.sum() @ points + rng.uniform(0.2, 1.0, 6) @ rays
    assert sq.vrep_ri_membership(sq.GeneratorSet(12, points, rays), z)
    (out,) = outcomes
    assert _lp_digest(out) == _RI_PIN


def test_min_norm_weighted_on_the_n40_draw_matches_its_pin():
    # the projection pins are asserted with the QP's solve counts
    P, v, rng = _pinned_draw(40)
    S = sq.GeneratorSet(40, P.A_ineq[80:83], P.A_ineq[83:103])
    value, z = sq.min_norm_weighted(S, 4.0 * v, rng.uniform(0.5, 2.0, 40))
    assert _digest(repr(value), z.tobytes()) == _MIN_NORM_PIN


# The tableau's edge shapes, each pinned with the outcome the simplex
# gave before its reduced costs became a tableau row ("bound-flip"
# re-pinned when phase 1 began to start from the slack basis, and
# "no-nonbasic-column" when the simplex began to price by Dantzig's
# rule: the same vertex, the same 3 pivots, rounded differently).
_EDGE_LPS = {
    # square nonsingular A_eq on x >= 0: phase 1 makes every column
    # basic, so phase 2 starts with no nonbasic column (free variables
    # would leave their negative parts nonbasic)
    "no-nonbasic-column": (
        dict(c=[1.0, -2.0, 0.5], lower=np.zeros(3),
             A_eq=[[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]],
             b_eq=[1.0, 2.0, 3.0]),
        "2a05f59f2f9b36f47a10b0b1b448c7193ece745b9ae9030a10c22cf83e3e6278"),
    # every row is a bound, so the tableau has no rows; phase 2 flips
    # x0 and x2 to their upper bounds
    "no-rows": (
        dict(c=[1.0, -2.0, 0.5],
             A_ineq=[[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 3.0, 0.0],
                     [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
             b_ineq=[1.0, 4.0, 3.0, 2.0, 0.5, 0.5]),
        "5c3c2794d8e7810dd4c72fdc3d6e28fb6737f1fd9da82e8efe1279d029964aac"),
    # the slack basis is feasible, so phase 1 has nothing to do; phase 2
    # flips x1 and x2 to their bounds without a pivot
    "bound-flip": (
        dict(c=[0.0, 2.0, 1.0], lower=np.zeros(3), upper=[2.0, 1.0, 2.0],
             A_ineq=[[1.0, -2.0, -1.0]], b_ineq=[2.0]),
        "bb3222d3cfaf22d855802ad659eb48ba380d3b325ddfaa957b583c3f775974ec"),
    # the second equality row is twice the first: its artificial stays
    # basic after phase 1 and the row is dropped
    "redundant-row": (
        dict(c=[1.0, 1.0, -1.0], lower=np.zeros(3),
             A_eq=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, -1.0, 0.0]],
             b_eq=[1.0, 2.0, 0.0]),
        "3183b5d91d185b9f2b0a11f0fc315760f64c50d8094cd0df491a7df07d0a45d8"),
    # x0 = 2, x1 = -1 is the only solution of the rows: phase 1 pivots
    # once and ends with a positive artificial
    "infeasible": (
        dict(c=[1.0, 1.0], lower=np.zeros(2),
             A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[1.0, 3.0]),
        "dd60991a44406a6a503fc239560f4936ad951a3b2c3938e698bcc346704d1b45"),
    "unbounded": (
        dict(c=[1.0, 1.0], lower=np.zeros(2), A_ineq=[[1.0, -1.0]],
             b_ineq=[1.0]),
        "252a0063b447ab9b71ad905b6b28bd9b973190a658ad160b20190c0244dfc1e2"),
}


@pytest.mark.parametrize("name", sorted(_EDGE_LPS))
def test_lp_edge_shapes_match_their_pins(name):
    kwargs, pin = _EDGE_LPS[name]
    assert _lp_digest(sq.lp_solve(**kwargs)) == pin
