"""Unit tests for the composite problem data model and subdifferentials."""

import contextlib

import numpy as np
import pytest

import sqreparam as sq
from sqreparam.cli import parse_problem_dict


def quad1(q=-1.0, r=0.5):
    # f(x) = x^2/2 + q x + r on the nonnegative half-line
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([q]), r),
        sq.PolyhedralFunction.orthant_indicator(1))


def test_smooth_quadratic_value_grad_hess():
    Q = np.array([[2.0, 1.0], [0.0, 4.0]])
    f = sq.SmoothQuadratic(Q, np.array([0.5, -1.0]), 3.0)
    x = np.array([1.0, 2.0])
    sym = 0.5 * (Q + Q.T)
    assert f.value(x) == pytest.approx(0.5 * x @ sym @ x + np.array([0.5, -1.0]) @ x + 3.0)
    assert np.allclose(f.grad(x), sym @ x + [0.5, -1.0])
    assert np.allclose(f.hess(x), sym)


def test_smooth_quadratic_grad_matches_fd():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((3, 3))
    f = sq.SmoothQuadratic(Q, rng.standard_normal(3), 0.7)
    x = rng.standard_normal(3)
    t = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        fd = (f.value(x + t * e) - f.value(x - t * e)) / (2 * t)
        assert fd == pytest.approx(f.grad(x)[i], abs=1e-6)


def _quadratic_draws(dims=range(1, 9), rounds=1):
    """(f, X) on seeded Q, q, r for each n in dims: X stacks rounds of
    tiny, unit, huge and mixed-scale rows; the huge ones overflow the
    value to inf."""
    rng = np.random.default_rng(11)
    for n in dims:
        f = sq.SmoothQuadratic(rng.standard_normal((n, n)),
                               rng.standard_normal(n), rng.standard_normal())
        X = []
        for _ in range(rounds):
            for scale in (1e-150, 1.0, 1e160):
                X.append(scale * rng.standard_normal(n))
            X.append(rng.standard_normal(n)
                     * 10.0 ** rng.uniform(-100, 100, n))
        yield f, np.array(X)


def test_smooth_quadratic_kernels_match_the_checked_methods():
    with pytest.warns(RuntimeWarning):
        for f, X in _quadratic_draws():
            for x in X:
                # the expression value and grad evaluated before they had
                # kernels
                value = float(0.5 * x @ f.Q @ x + f.q @ x + f.r)
                for got in (f._value(x), f.value(x), f.value(list(x))):
                    assert got == value or (np.isnan(got) and np.isnan(value))
                grad = f.Q @ x + f.q
                for got in (f._grad(x), f.grad(x), f.grad(list(x))):
                    assert np.array_equal(got, grad, equal_nan=True)


def test_smooth_quadratic_stack_kernels_match_the_row_kernels():
    # 128 rows of each f up to n = 80; the huge quarter overflows to inf,
    # or to NaN where an inf and a -inf meet in the sum
    with pytest.warns(RuntimeWarning):
        for f, X in _quadratic_draws((*range(1, 9), 13, 32, 57, 80), 32):
            assert X.shape == (128, f.n)
            assert not np.isfinite(f._values(X)).all()
            # one row of each scale alone, then all 128
            for stack in (X[0:1], X[1:2], X[2:3], X[3:4], X):
                assert np.array_equal(f._values(stack),
                                      [f._value(x) for x in stack],
                                      equal_nan=True)
                assert np.array_equal(f._grads(stack),
                                      [f._grad(x) for x in stack],
                                      equal_nan=True)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_smooth_quadratic_value_kernel_rejects_nonfinite_x(bad):
    # an inf or NaN entry makes the value non-finite even where Q and q
    # vanish (inf * 0 is NaN), so the kernel raises as value does, and so
    # does the stack kernel on a stack with x as one of its rows; numpy
    # reports the invalid operations of an inf, a NaN passes quietly
    rng = np.random.default_rng(3)
    warns = (pytest.warns(RuntimeWarning)
             if np.isinf(bad) else contextlib.nullcontext())
    with warns:
        for f in (sq.SmoothQuadratic(rng.standard_normal((3, 3)),
                                     rng.standard_normal(3)),
                  sq.SmoothQuadratic(np.zeros((3, 3)), np.zeros(3))):
            for i in range(3):
                x = np.abs(rng.standard_normal(3))
                x[i] = bad
                X = np.abs(rng.standard_normal((10, 3)))
                X[4 * i] = x
                for method, arg in ((f.value, x), (f._value, x),
                                    (f._values, X)):
                    with pytest.raises(sq.DimensionMismatch,
                                       match="^x: entries must be finite$"):
                        method(arg)


def test_f_kernels_bind_the_checked_methods_of_other_f():
    # the stack kernels of any other f loop over its public methods
    f = sq.SmoothQuadratic(np.eye(2), np.ones(2))
    assert sq.polyfunc._f_kernels(f) == (f._value, f._grad)
    assert sq.polyfunc._f_stack_kernels(f) == (f._values, f._grads)

    class Shifted(sq.SmoothQuadratic):
        def value(self, x):
            return super().value(x) + 1.0

    class Duck:
        def value(self, x):
            return 0.0

        def grad(self, x):
            return np.zeros(2)

    X = np.arange(6.0).reshape(3, 2)
    for other in (Shifted(np.eye(2), np.ones(2)), Duck()):
        assert sq.polyfunc._f_kernels(other) == (other.value, other.grad)
        values, grads = sq.polyfunc._f_stack_kernels(other)
        assert np.array_equal(values(X), [other.value(x) for x in X])
        assert np.array_equal(grads(X), [other.grad(x) for x in X])
        assert values(X[:0]).shape == (0,)


def test_orthant_indicator_rows():
    g = sq.PolyhedralFunction.orthant_indicator(3)
    assert g.n_pieces == 0
    assert g.domain.m_ineq == 3
    assert g.domain.m_eq == 0


def test_domain_nonnegativity_rows_deduped():
    # a domain that already carries -x_i <= 0 rows must not get duplicates
    P = sq.Polyhedron(2, A_ineq=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                      b_ineq=np.array([0.0, 0.0, 2.0]))
    g = sq.PolyhedralFunction(2, domain=P)
    assert g.domain.m_ineq == 3


@pytest.mark.parametrize("make, kind, m_ineq", [
    (lambda: sq.PolyhedralFunction.orthant_indicator(3), "orthant", 3),
    # 2 * sum x = 2 is the unit simplex written with a scaled row
    (lambda: sq.PolyhedralFunction.indicator(
        sq.Polyhedron(3, A_eq=[[2.0, 2.0, 2.0]], b_eq=[2.0])), "simplex", 3),
    # two copies of -2 e_0: both rows stay, no -e_0 is added, and the
    # kind counts rows, not coordinates
    (lambda: sq.PolyhedralFunction.indicator(
        sq.Polyhedron(2, A_ineq=[[-2.0, 0.0], [-2.0, 0.0]],
                      b_ineq=[0.0, 0.0])), "orthant", 3),
    (lambda: sq.PolyhedralFunction.indicator(
        sq.Polyhedron.box([0.0, 0.0], [1.0, 1.0])), "box", 4),
    (lambda: sq.PolyhedralFunction.indicator(
        sq.Polyhedron(2, A_ineq=[[1.0, 1.0]], b_ineq=[2.0])), "general", 3),
    (lambda: sq.PolyhedralFunction.max_of_pieces(
        [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)],
        sq.Polyhedron.nonneg_orthant(2)), "general", 2),
])
def test_domain_kind_decided_at_construction(make, kind, m_ineq):
    g = make()
    assert g.kind == kind
    assert g.domain.m_ineq == m_ineq


def test_domain_nonnegativity_rows_appended():
    P = sq.Polyhedron(2, A_ineq=np.array([[1.0, 1.0]]), b_ineq=np.array([2.0]))
    g = sq.PolyhedralFunction(2, domain=P)
    assert g.domain.m_ineq == 3
    assert not g.domain.contains(np.array([-0.5, 0.5]))


def test_g_eval_max_of_pieces():
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              pieces_b=np.array([0.0, 1.0]))
    assert sq.g_eval(g, np.array([3.0, 1.0])) == pytest.approx(3.0)
    assert sq.g_eval(g, np.array([0.5, 1.0])) == pytest.approx(2.0)
    assert sq.g_eval(g, np.array([-1.0, 0.0])) == np.inf


def test_g_eval_indicator():
    g = sq.PolyhedralFunction.simplex_indicator(2)
    assert sq.g_eval(g, np.array([0.5, 0.5])) == 0.0
    assert sq.g_eval(g, np.array([0.5, 0.6])) == np.inf


def test_g_subdiff_orthant_normal_cone():
    g = sq.PolyhedralFunction.orthant_indicator(2)
    S = sq.g_subdiff(g, np.array([1.0, 1.0]))
    assert S.n_points == 1 and S.n_rays == 0
    assert np.allclose(S.points, 0.0)
    S = sq.g_subdiff(g, np.array([0.0, 1.0]))
    assert S.n_rays == 1
    assert np.allclose(S.rays, [[-1.0, 0.0]])


def test_g_subdiff_out_of_domain():
    g = sq.PolyhedralFunction.orthant_indicator(1)
    with pytest.raises(sq.ValidationError,
                       match=r"^g_subdiff: point outside the domain$"):
        sq.g_subdiff(g, np.array([-1.0]))


def test_g_subdiff_piece_tie_is_hull():
    # max(x1, x2) at a tie point: subdifferential is conv{e1, e2}
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              pieces_b=np.zeros(2))
    S = sq.g_subdiff(g, np.array([1.0, 1.0]))
    assert S.n_points == 2
    assert sq.vrep_membership(S, np.array([0.5, 0.5]))
    assert not sq.vrep_membership(S, np.array([1.0, 1.0]))


def test_activity_pattern_tie_and_degenerate_rows():
    g = sq.PolyhedralFunction(2, pieces_A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              pieces_b=np.zeros(2))
    ap = sq.activity_pattern(g, np.array([1.0, 1.0]))
    assert len(ap.active_pieces) == 2
    ap = sq.activity_pattern(g, np.array([2.0, 1.0]))
    assert tuple(ap.active_pieces) == (0,)


def test_phi_value_composite():
    p = quad1()
    assert sq.phi_value(p, np.array([1.0])) == pytest.approx(0.0)
    assert sq.phi_value(p, np.array([0.0])) == pytest.approx(0.5)
    assert sq.phi_value(p, np.array([-1.0])) == np.inf


def test_phi_residual_designed_values():
    p = quad1()
    assert sq.phi_residual(p, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)
    # at x = 0 the subdifferential is (-inf, -1]; distance to 0 is 1
    assert sq.phi_residual(p, np.array([0.0])) == pytest.approx(1.0, abs=1e-9)


def test_problem_objects_do_not_follow_edits_of_their_inputs():
    A, b = -np.eye(2), np.zeros(2)
    A_eq, b_eq = np.ones((1, 2)), np.ones(1)
    box = sq.Polyhedron(2, A, b)
    simplex = sq.Polyhedron(2, A, b, A_eq, b_eq)
    Q, q = np.eye(2), np.zeros(2)
    f = sq.SmoothQuadratic(Q, q)
    pieces_A, pieces_b = np.array([[1.0, 0.0]]), np.zeros(1)
    g = sq.PolyhedralFunction(2, pieces_A, pieces_b, box)
    assert (box.shape.kind, simplex.shape.kind, g.kind) \
        == ("box", "simplex", "general")
    b[0], b_eq[0], q[0], pieces_b[0], Q[0, 0] = -1.0, 2.0, 3.0, 3.0, 5.0
    # the matrices kept are frozen on the caller's side
    assert not any(M.flags.writeable for M in (A, A_eq, pieces_A))
    assert (box.shape.kind, simplex.shape.kind, g.kind) \
        == ("box", "simplex", "general")
    assert np.array_equal(box.b_ineq, [0.0, 0.0])
    assert np.array_equal(box.shape.lower, [0.0, 0.0])
    assert box.contains([0.5, 0.0])
    assert np.array_equal(sq.project_onto_polyhedron(box, [-1.0, -1.0]),
                          [0.0, 0.0])
    assert np.array_equal(simplex.b_eq, [1.0]) and simplex.shape.total == 1.0
    assert simplex.contains([0.5, 0.5])
    assert f.value([1.0, 0.0]) == 0.5
    assert np.array_equal(f.q, [0.0, 0.0])
    assert sq.g_eval(g, [1.0, 0.0]) == 1.0
    assert np.array_equal(g.pieces_b, [0.0])


# A matrix that owns its data is kept and frozen on the caller's side; a
# view would still follow edits through its writable base, so it is
# copied.

def test_a_polyhedron_does_not_follow_edits_of_the_base_of_a_slice():
    A = np.vstack([-np.eye(2), np.eye(2)])
    P = sq.Polyhedron(2, A[:2], [0.0, 0.0])
    assert P.shape.kind == "box"
    A[0] = [1.0, 1.0]
    assert np.array_equal(P.A_ineq, -np.eye(2))
    assert P.shape.kind == "box" and P.contains([0.5, 0.5])
    owned = -np.eye(2)
    assert sq.Polyhedron(2, owned, [0.0, 0.0]).A_ineq is owned


def test_a_polyhedron_does_not_follow_edits_of_a_row_given_as_a_vector():
    row = np.array([1.0, 1.0])
    P = sq.Polyhedron(2, row, [1.0], row, [1.0])
    row[0] = 5.0
    assert np.array_equal(P.A_ineq, [[1.0, 1.0]])
    assert np.array_equal(P.A_eq, [[1.0, 1.0]])
    assert P.contains([0.5, 0.5])


def test_pieces_do_not_follow_edits_of_the_base_of_a_slice():
    pieces = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = sq.PolyhedralFunction(2, pieces[:1], [0.0])
    pieces[0] = [5.0, 5.0]
    assert np.array_equal(g.pieces_A, [[1.0, 0.0]])
    assert sq.g_eval(g, [1.0, 1.0]) == 1.0


def test_composite_problem_dimension_guard():
    f = sq.SmoothQuadratic(np.eye(2), np.zeros(2))
    g = sq.PolyhedralFunction.orthant_indicator(3)
    with pytest.raises(sq.DimensionMismatch):
        sq.CompositeProblem(f, g)


class _NoHessian:
    """A duck-typed f with a value and a gradient but no Hessian."""

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros(1)


@pytest.mark.parametrize("build, message", [
    (lambda: sq.SmoothQuadratic(np.ones((2, 3)), np.zeros(2)),
     "Q must be square"),
    (lambda: sq.SmoothQuadratic(np.eye(2), np.zeros(2), np.inf),
     "r must be finite"),
    (lambda: sq.SmoothQuadratic(np.eye(1), [0.0], r=True),
     "r must be a real number, got True"),
    (lambda: sq.PolyhedralFunction(0), "n must be a positive integer"),
    (lambda: sq.PolyhedralFunction(True), "n must be a positive integer"),
    (lambda: sq.PolyhedralFunction(2, domain=sq.Polyhedron.nonneg_orthant(3)),
     "domain dimension does not match n"),
    (lambda: sq.CompositeProblem(_NoHessian(),
                                 sq.PolyhedralFunction.orthant_indicator(1)),
     "f must provide a callable hess"),
], ids=["Q-not-square", "r-infinite", "r-bool", "g-without-coordinates",
        "g-n-bool", "domain-dimension", "f-without-hess"])
def test_problem_parts_refuse_bad_shapes(build, message):
    with pytest.raises(sq.DimensionMismatch, match=message):
        build()


def _shaped_problem(kind):
    """A quadratic on an orthant, a box or a scaled simplex, and a lifted
    point with coordinates at zero, inside and (box) at upper bounds."""
    rng = np.random.default_rng(len(kind))
    n = 4
    M = rng.standard_normal((n, n))
    f = sq.SmoothQuadratic(M @ M.T, rng.standard_normal(n))
    if kind == "orthant":
        g = sq.PolyhedralFunction.orthant_indicator(n)
        x = np.array([0.0, 1.2, 0.0, 0.7])
    elif kind == "box":
        upper = np.array([1.0, 2.0, 1.5, 3.0])
        g = sq.PolyhedralFunction.indicator(sq.Polyhedron.box(np.zeros(n),
                                                              upper))
        x = np.array([0.0, 2.0, 0.5, 3.0])
    else:
        g = sq.PolyhedralFunction.indicator(sq.Polyhedron(
            n, A_ineq=-2.0 * np.eye(n), b_ineq=np.zeros(n),
            A_eq=3.0 * np.ones((1, n)), b_eq=[4.5]))
        x = np.array([0.0, 0.5, 1.0, 0.0])
    return sq.CompositeProblem(f, g), np.sqrt(x) * [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("kind", ["orthant", "box", "simplex"])
def test_local_model_min_norm_is_closed_form_on_box_and_simplex(
        monkeypatch, kind):
    # the lifted and the phi residual are read off the active rows: no
    # QP runs and S is never built; both agree with the QP on S
    p, y = _shaped_problem(kind)
    assert p.g.domain.shape.kind == ("simplex" if kind == "simplex" else "box")
    qps = []
    monkeypatch.setattr(sq.polyfunc, "min_norm_weighted",
                        lambda *args: qps.append(args))
    pt = sq.lift_point(p, y)
    lifted, phi, z = pt.lifted_residual, pt.phi_residual, pt.phi_min_norm[1]
    assert qps == [] and "S" not in vars(pt) and "G" not in vars(pt)
    for weights, value in ((np.abs(y), 0.5 * lifted), (np.ones(p.n), phi)):
        qp_value, qp_z = sq.min_norm_weighted(pt.S, pt.grad, weights)
        scale = 1.0 + np.linalg.norm(weights * pt.grad)
        assert abs(value - qp_value) <= 1e-14 * scale
    assert np.abs(z - qp_z).max() <= 1e-12 * (1.0 + np.abs(pt.grad).max())


def _counted(monkeypatch, module, name):
    """The argument tuples of every call of module.<name>."""
    calls = []
    kernel = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_local_model_min_norm_keeps_the_qp_for_pieces(monkeypatch):
    # each min-norm over a general g is one dual projection; the primal
    # QP is the oracles' projection reference and never runs here
    calls = _counted(monkeypatch, sq.polyfunc, "min_norm_weighted")
    duals = _counted(monkeypatch, sq.polyhedra, "_dual_projection")
    primal = [_counted(monkeypatch, sq.oracles, name)
              for name in ("_qp_active_set", "_kkt_solve")]
    g = sq.PolyhedralFunction.max_of_pieces(
        [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)],
        sq.Polyhedron.box([0.0, 0.0], [1.0, 1.0]))
    p = sq.CompositeProblem(sq.SmoothQuadratic(np.eye(2), -np.ones(2)), g)
    pt = sq.lift_point(p, [0.5, 0.5])
    pt.lifted_residual, pt.phi_residual
    assert (len(calls), len(duals)) == (2, 2)
    assert primal == [[], []]


def test_local_model_min_norm_outside_the_domain_raises():
    p, _ = _shaped_problem("box")
    with pytest.raises(sq.ValidationError,
                       match=r"^y\*y is outside the domain of g$"):
        sq.lift_point(p, [0.0, 0.0, 0.0, 2.0]).lifted_residual
    outside = r"^g_subdiff: point outside the domain$"
    with pytest.raises(sq.ValidationError, match=outside):
        sq.LocalModel(p.g, p.f, [0.0, 0.0, 0.0, 4.0]).phi_residual
    p, _ = _shaped_problem("simplex")
    with pytest.raises(sq.ValidationError, match=outside):
        sq.LocalModel(p.g, p.f, [0.0, 0.0, 0.0, 1.0]).phi_residual


def test_building_on_a_general_domain_solves_no_lp(monkeypatch):
    # the domain's emptiness is the verdict of its projections: neither a
    # problem nor a parsed file solves an LP to decide it
    def refused(*args, **kwargs):
        raise AssertionError("lp_solve called")

    monkeypatch.setattr(sq.polyhedra, "lp_solve", refused)
    dom = sq.Polyhedron(3, A_ineq=[[1.0, 1.0, 0.0], [0.0, -1.0, 2.0]],
                        b_ineq=[2.0, 1.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.5])
    assert sq.PolyhedralFunction.indicator(dom).kind == "general"
    sq.PolyhedralFunction.max_of_pieces([([1.0, 0.0, 0.0], 0.0)], dom)
    data = {"n": 2, "f": {"Q": [[1.0, 0.0], [0.0, 1.0]]},
            "g": {"domain": {"A_ineq": [[1.0, 1.0]], "b_ineq": [1.0]}}}
    assert parse_problem_dict(data).problem.g.kind == "general"
    data["g"]["domain"]["b_ineq"] = [-1e-8]
    with pytest.raises(sq.ValidationError, match="empty domain"):
        parse_problem_dict(data)
