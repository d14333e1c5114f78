"""Unit tests for exponent prediction, scatter estimation, and solver rates."""

import hashlib
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import sqreparam as sq
from sqreparam import kl_lab
from sqreparam.oracles import make_stationary_orthant_instance

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def quartic():
    # f(x) = x^2/2 on the half-line; minimizer x = 0, no strict complementarity
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.zeros(1)),
        sq.PolyhedralFunction.orthant_indicator(1))


def strict1():
    # f(x) = (x-1)^2/2 on the half-line; minimizer x = 1, strict complementarity
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))


def strict2():
    # f(x) = ||x - (1,-1)||^2/2 on the orthant; minimizer (1, 0)
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0),
        sq.PolyhedralFunction.orthant_indicator(2))


def test_predict_exponent_values():
    assert sq.predict_exponent(sq.ExponentInputs(0.5, True)) == 0.5
    assert sq.predict_exponent(sq.ExponentInputs(0.75, True)) == 0.75
    assert sq.predict_exponent(sq.ExponentInputs(0.25, True)) == 0.5
    assert sq.predict_exponent(sq.ExponentInputs(0.5, False, 1.0)) == 0.75
    # beta = 1 - gamma (1 - alpha); exponent (1 + beta) / 2
    assert sq.predict_exponent(sq.ExponentInputs(0.5, False, 0.5)) == \
        pytest.approx(0.875)


def test_predict_exponent_range_errors():
    with pytest.raises(sq.InvalidRange):
        sq.predict_exponent(sq.ExponentInputs(1.0, True))
    with pytest.raises(sq.InvalidRange):
        sq.predict_exponent(sq.ExponentInputs(-0.1, True))
    with pytest.raises(sq.InvalidRange):
        sq.predict_exponent(sq.ExponentInputs(0.5, False))
    with pytest.raises(sq.InvalidRange):
        sq.predict_exponent(sq.ExponentInputs(0.5, False, 1.5))
    with pytest.raises(sq.InvalidRange):
        sq.predict_exponent(sq.ExponentInputs(0.5, False, 0.0))
    # alpha and gamma are real numbers, strict a bool
    for args in ((None, True), (0.5, False, "1"), (0.5, True, "1"),
                 (True, True), (0.5, "no"), (0.5, 1, 1.0)):
        with pytest.raises(sq.InvalidRange):
            sq.ExponentInputs(*args)


def test_strict_complementarity_designed():
    assert not sq.strict_complementarity(quartic(), np.array([0.0]))
    assert sq.strict_complementarity(strict1(), np.array([1.0]))
    assert sq.strict_complementarity(strict2(), np.array([1.0, 0.0]))


def test_strict_complementarity_requires_stationary_point():
    with pytest.raises(sq.ValidationError,
                       match=r"^xbar is not stationary for phi$"):
        sq.strict_complementarity(strict2(), np.array([0.5, 0.5]))
    with pytest.raises(sq.ValidationError,
                       match=r"^xbar is outside the domain of g$"):
        sq.strict_complementarity(strict2(), np.array([-1.0, 0.0]))


def test_scatter_config_validation():
    with pytest.raises(sq.InvalidRange):
        sq.ScatterConfig(delta_min=1e-2, delta_max=1e-6)
    with pytest.raises(sq.InvalidRange):
        sq.ScatterConfig(n_radii=0)
    for bad in (dict(delta_min=None), dict(delta_max="1"),
                dict(delta_min=False), dict(delta_max=np.nan)):
        with pytest.raises(sq.InvalidRange):
            sq.ScatterConfig(**bad)
    # seeds follow the rule of the seeded generators, counts are integers
    # as well
    for bad in (dict(seed=1.5), dict(seed=True), dict(seed=-1),
                dict(n_radii=2.5), dict(n_dirs=3.0), dict(n_dirs=True),
                dict(n_dirs=0)):
        with pytest.raises(sq.InvalidRange):
            sq.ScatterConfig(**bad)
    for bad in (1.5, True, -1):
        with pytest.raises(sq.InvalidRange):
            sq.oracles.random_orthant_instance(bad)
    assert sq.ScatterConfig(n_radii=np.int64(2), seed=np.int64(7)).seed == 7


def test_sample_scatter_shape_and_order():
    sc = sq.sample_scatter(quartic(), np.array([0.0]))
    assert sc.ndim == 2 and sc.shape[1] == 2
    assert np.all(np.diff(sc[:, 0]) >= 0)
    assert np.all(sc[:, 0] > 0)
    assert np.all(sc[:, 1] >= 0)


def test_sample_scatter_rejects_nonstationary_center():
    with pytest.raises(sq.ValidationError,
                       match=r"^ybar is not lifted stationary$"):
        sq.sample_scatter(strict1(), np.array([0.5]))


def test_sample_scatter_accepts_rescaled_stationary_points():
    # f + g multiplied by 1e6: the lifted residual at ybar is rounding of
    # order 1e6 * eps, which a bare tol refused on 13 of these 40
    for s in range(40):
        p, ybar, _ = make_stationary_orthant_instance(s)
        p = sq.CompositeProblem(
            sq.SmoothQuadratic(1e6 * p.f.Q, 1e6 * p.f.q), p.g)
        assert sq.sample_scatter(p, ybar).shape[1] == 2


def test_estimate_exponent_quartic():
    rep = sq.estimate_exponent(quartic(), np.array([0.0]),
                               inputs=sq.ExponentInputs(0.5, False, 1.0))
    assert 0.70 <= rep.alpha_hat <= 0.80
    assert rep.predicted == pytest.approx(0.75)
    assert rep.verdict is True
    assert rep.r_squared > 0.99
    assert rep.n_bins_used >= 8
    assert rep.gap_range[0] < rep.gap_range[1]


def test_estimate_exponent_strict_pair():
    rep = sq.estimate_exponent(strict1(), np.array([1.0]),
                               inputs=sq.ExponentInputs(0.5, True))
    assert 0.45 <= rep.alpha_hat <= 0.55
    assert rep.predicted == pytest.approx(0.5)
    assert rep.verdict is True
    rep2 = sq.estimate_exponent(strict2(), np.array([1.0, 0.0]))
    assert 0.45 <= rep2.alpha_hat <= 0.55
    assert rep2.predicted is None and rep2.verdict is None


def test_estimate_exponent_is_deterministic_and_fits_its_scatter():
    p = quartic()
    y = np.array([0.0])
    a = sq.estimate_exponent(p, y)
    b = sq.estimate_exponent(p, y)
    assert a.alpha_hat == b.alpha_hat
    # kl-fit fits the scatter it writes through the same private fit
    c = sq.ScatterConfig(seed=3)
    i = sq.ExponentInputs(0.5, False, 1.0)
    assert kl_lab._fit_envelope(sq.sample_scatter(p, y, c), i) == \
        sq.estimate_exponent(p, y, c, i)
    assert kl_lab._fit_envelope(sq.sample_scatter(p, y), None) == a
    # it draws its own scatter: no samples can be passed in
    assert list(inspect.signature(sq.estimate_exponent).parameters) == \
        ["p", "ybar", "config", "inputs"]


@pytest.mark.parametrize("config, message", [
    (sq.ScatterConfig(n_radii=2, n_dirs=1), "too few positive-residual"),
    (sq.ScatterConfig(n_radii=3, n_dirs=8), "only 3 nonempty bins"),
], ids=["too-few-samples", "too-few-bins"])
def test_estimate_exponent_needs_eight_bins(config, message):
    with pytest.raises(sq.InsufficientSamples, match=message):
        sq.estimate_exponent(quartic(), np.array([0.0]), config)


def test_lemma61_probe_orders():
    # quartic instance: the inequality holds at order 1/2 with constant 2*sqrt(2)
    val = sq.lemma61_probe(quartic(), np.array([0.0]), 0.5)
    assert val == pytest.approx(2.0 * np.sqrt(2.0), rel=0.05)
    # at order 0 the ratio decays like the sample radius: no uniform bound
    val0 = sq.lemma61_probe(quartic(), np.array([0.0]), 0.0)
    assert val0 < 1e-4
    # strict instance: order 0 holds with constant 2
    vs = sq.lemma61_probe(strict1(), np.array([1.0]), 0.0)
    assert vs == pytest.approx(2.0, rel=0.05)


def test_lemma61_probe_one_gradient_per_model(monkeypatch):
    # one model, at the centre, and one grad f evaluation there and per
    # kept sample: on the strict instance every one of the 32 * 4 samples
    # clears the gap floor, and on the orthant they are scored as one
    # stack, with no model each and one call of the stack kernel; grad f
    # is counted at the unchecked kernels, which the public grad calls
    builds, grads = [], []
    init = sq.LocalModel.__init__
    grad, stack = sq.SmoothQuadratic._grad, sq.SmoothQuadratic._grads

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counted_grad(self, x):
        grads.append(x.shape)
        return grad(self, x)

    def counted_stack(self, X):
        grads.append(X.shape)
        return stack(self, X)

    monkeypatch.setattr(sq.LocalModel, "__init__", counted_init)
    monkeypatch.setattr(sq.SmoothQuadratic, "_grad", counted_grad)
    monkeypatch.setattr(sq.SmoothQuadratic, "_grads", counted_stack)
    config = sq.ScatterConfig(n_radii=32, n_dirs=4)
    sq.lemma61_probe(strict1(), np.array([1.0]), 0.0, config)
    assert len(builds) == 1 and grads == [(1,), (128, 1)]


# sample_scatter and lemma61_probe score every sample of a stack at once
# (the closed form on a box or simplex indicator, one local model per row
# otherwise); the reference scores them one at a time through the public
# functions, in the sampling plan's order


def _reference_samples(p, xbar, base, config):
    rng = np.random.default_rng(config.seed)
    dirs = rng.standard_normal((config.n_dirs, p.n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    floor = 10.0 * np.finfo(float).eps * (1.0 + abs(base))
    for delta in np.geomspace(config.delta_min, config.delta_max,
                              config.n_radii):
        for u in dirs:
            x = sq.project_onto_polyhedron(p.g.domain, xbar + delta * u)
            gap = sq.phi_value(p, x) - base
            if gap > floor:
                yield x, gap


def _reference_scatter(p, ybar, config):
    base = sq.lift_eval(p, ybar)
    return np.array(sorted(
        (gap, sq.lifted_residual(p, np.sqrt(np.maximum(x, 0.0))))
        for x, gap in _reference_samples(p, ybar * ybar, base, config)))


def _reference_probe(p, xbar, beta, config):
    support = np.abs(xbar) > 1e-8
    best = math.inf
    for x, gap in _reference_samples(p, xbar, sq.phi_value(p, xbar), config):
        pt = sq.LocalModel(p.g, p.f, x)
        v = pt.grad + pt.phi_min_norm[1]
        lhs = float(np.sum(v[support] ** 2)
                    + np.abs(x[~support] - xbar[~support])
                    @ (v[~support] ** 2))
        best = min(best, lhs / gap ** (1.0 + beta))
    return best


def _sampled_problem(kind):
    """(problem, minimizer) of a convex instance of each class, with
    several coordinates off the support."""
    n = 7
    if kind == "pieces2":
        pf = sq.parse_problem_file(PROBLEMS / "pieces2.json")
        return pf.problem, np.array([0.5, 0.5])
    if kind == "orthant":
        g = sq.PolyhedralFunction.orthant_indicator(n)
        c = [1.0, -1.0, 0.5, -0.3, -2.0, 0.8, -0.1]
    elif kind == "box":
        # [0, 1]^n with scaled and duplicated bound rows; x_0 and x_4 sit
        # at their upper bounds
        A = np.vstack([2.0 * np.eye(n), -np.eye(n), 3.0 * np.eye(1, n)])
        b = np.concatenate([2.0 * np.ones(n), np.zeros(n), [3.0]])
        g = sq.PolyhedralFunction.indicator(sq.Polyhedron(n, A, b))
        c = [2.0, -1.0, 0.5, -0.3, 1.7, 0.8, -0.1]
    elif kind == "simplex":
        # {x >= 0, sum x = 2}, the equality row scaled by 2
        dom = sq.Polyhedron(n, A_ineq=-np.eye(n), b_ineq=np.zeros(n),
                            A_eq=2.0 * np.ones((1, n)), b_eq=[4.0])
        g = sq.PolyhedralFunction.indicator(dom)
        c = [1.8, 0.6, -1.0, 0.9, -0.2, 0.1, -3.0]
    else:
        # a general polyhedron: the row a x <= 2 is active at the minimizer
        # xbar, with multiplier 1/2, and so are the orthant rows where
        # xbar is 0, with multiplier 1
        a = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        xbar = np.array([0.5, 0.25, 0.0, 0.5, 0.0, 0.5, 0.0])
        g = sq.PolyhedralFunction.indicator(sq.Polyhedron(n, [a], [2.0]))
        c = xbar + 0.5 * a - (xbar == 0.0)
    assert g.domain.shape.kind == {"orthant": "box", "box": "box",
                                   "simplex": "simplex"}.get(kind, "general")
    c = np.array(c)
    p = sq.CompositeProblem(sq.SmoothQuadratic(np.eye(n), -c), g)
    if kind == "polyhedron":
        return p, xbar
    return p, sq.project_onto_polyhedron(g.domain, c)


@pytest.mark.parametrize("kind", ["orthant", "box", "simplex", "pieces2",
                                  "polyhedron"])
def test_scatter_and_probe_match_a_per_sample_loop(kind):
    p, xbar = _sampled_problem(kind)
    ybar = np.sqrt(xbar)
    for seed in (0, 7, 11):
        config = sq.ScatterConfig(n_radii=12, n_dirs=5, seed=seed)
        scatter = sq.sample_scatter(p, ybar, config)
        assert scatter.shape[0] >= 8
        assert np.array_equal(scatter, _reference_scatter(p, ybar, config))
        for beta in (0.0, 0.25, 0.5, 0.75):
            assert sq.lemma61_probe(p, xbar, beta, config) == \
                _reference_probe(p, xbar, beta, config)


def _simplex_of_total(total):
    f = sq.SmoothQuadratic(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
    dom = sq.Polyhedron(3, A_ineq=-np.eye(3), b_ineq=np.zeros(3),
                        A_eq=np.ones((1, 3)), b_eq=[total])
    return sq.CompositeProblem(f, sq.PolyhedralFunction.indicator(dom))


def test_scatter_and_probe_errors_on_the_stack():
    # on the simplex of total 1e8 the sum of a projected sample misses the
    # total by rounding beyond DEFAULT_TOL: the sample leaves the domain
    xbar = np.array([1e8, 0.0, 0.0])
    outside = r"^a projected sample is outside the domain of g$"
    with pytest.raises(sq.ValidationError, match=outside):
        sq.sample_scatter(_simplex_of_total(1e8), np.sqrt(xbar))
    with pytest.raises(sq.ValidationError, match=outside):
        sq.lemma61_probe(_simplex_of_total(1e8), xbar, 0.5)
    # at total 5e6 the projected samples stay in the domain and the sum of
    # some y*y, y = sqrt(x), leaves it
    with pytest.raises(sq.ValidationError,
                       match=r"^y\*y is outside the domain of g$"):
        sq.sample_scatter(_simplex_of_total(5e6),
                          np.sqrt([5e6, 0.0, 0.0]))
    # f = 1e-14 (x_0 + x_1): every gap lies in (0, 2e-16], below the floor
    # 10 eps (1 + |phi(0)|)
    flat = sq.CompositeProblem(sq.SmoothQuadratic(np.zeros((2, 2)),
                                                  np.full(2, 1e-14)),
                               sq.PolyhedralFunction.orthant_indicator(2))
    with pytest.raises(sq.InsufficientSamples):
        sq.sample_scatter(flat, np.zeros(2))
    with pytest.raises(sq.InsufficientSamples):
        sq.lemma61_probe(flat, np.zeros(2), 0.5)
    # a centre outside a box domain
    box = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.zeros(1)),
        sq.PolyhedralFunction.indicator(sq.Polyhedron.box([0.0], [1.0])))
    with pytest.raises(sq.ValidationError,
                       match=r"^ybar\*ybar is outside the domain of g$"):
        sq.sample_scatter(box, np.array([2.0]))
    with pytest.raises(sq.ValidationError,
                       match=r"^xbar is outside the domain of g$"):
        sq.lemma61_probe(box, np.array([2.0]), 0.5)


def test_perturbations_refuse_a_sample_outside_the_domain(monkeypatch):
    # a projection that leaves one row at x = -1 on the half-line: the
    # scatter and the probe refuse it instead of passing it on at gap +inf
    project_rows = kl_lab._project_rows

    def one_row_outside(P, X):
        X = project_rows(P, X)
        X[7] = -1.0
        return X

    monkeypatch.setattr(kl_lab, "_project_rows", one_row_outside)
    outside = r"^a projected sample is outside the domain of g$"
    with pytest.raises(sq.ValidationError, match=outside):
        sq.sample_scatter(quartic(), np.array([0.0]))
    with pytest.raises(sq.ValidationError, match=outside):
        sq.lemma61_probe(quartic(), np.array([0.0]), 0.5)


def test_lemma61_probe_errors():
    for beta in (1.0, -0.1, None, "0.5", False):
        with pytest.raises(sq.InvalidRange):
            sq.lemma61_probe(quartic(), np.array([0.0]), beta)
    indefinite = sq.CompositeProblem(
        sq.SmoothQuadratic(-np.eye(1), np.zeros(1)),
        sq.PolyhedralFunction.orthant_indicator(1))
    with pytest.raises(
            sq.ValidationError,
            match=r"^smooth part has a negative curvature direction$"):
        sq.lemma61_probe(indefinite, np.array([0.0]), 0.5)
    with pytest.raises(
            sq.ValidationError,
            match=r"^xbar is not stationary, hence not a minimizer$"):
        sq.lemma61_probe(strict1(), np.array([0.0]), 0.5)


def test_run_first_order_rejects_unknown_variant():
    with pytest.raises(sq.UnsupportedProblemClass):
        sq.run_first_order(quartic(), "bogus", np.array([1.0]), steps=5)
    # a non-finite f_star would clip every gap to 0
    for f_star in (math.inf, math.nan, "0", True):
        with pytest.raises(sq.InvalidRange):
            sq.run_first_order(quartic(), "lifted", np.array([1.0]), steps=5,
                               f_star=f_star)
    # steps is an integer of at least 1; True is not one step
    for steps in (0, -1, 2.5, True, "5"):
        with pytest.raises(sq.InvalidRange):
            sq.run_first_order(quartic(), "lifted", np.array([1.0]),
                               steps=steps)


def test_run_first_order_rejects_nonindicator_original():
    pieces = sq.PolyhedralFunction(1, pieces_A=np.array([[1.0]]),
                                   pieces_b=np.zeros(1))
    p = sq.CompositeProblem(sq.SmoothQuadratic(np.eye(1), np.zeros(1)), pieces)
    with pytest.raises(sq.UnsupportedProblemClass):
        sq.run_first_order(p, "original", np.array([1.0]), steps=5)
    with pytest.raises(sq.UnsupportedProblemClass):
        sq.run_first_order(p, "lifted", np.array([1.0]), steps=5)


def test_trace_rows_are_k_gap_residual_step():
    tr = sq.run_first_order(quartic(), "lifted", np.array([0.5]), steps=50,
                            f_star=0.0)
    rows = np.asarray(tr.iterates)
    assert rows.shape[1] == 4
    assert np.all(np.diff(rows[:, 0]) == 1)
    assert np.all(rows[:, 1] >= 0)
    assert tr.variant == "lifted"
    assert tr.f_star == 0.0


def test_lifted_descent_stops_at_a_zero_residual():
    # y = 0 is a critical point of f(y*y): the first step records a zero
    # residual and a zero step, and the run stops there
    p = sq.CompositeProblem(sq.SmoothQuadratic(np.eye(1), np.zeros(1)),
                            sq.PolyhedralFunction.orthant_indicator(1))
    tr = sq.run_first_order(p, "lifted", np.zeros(1))
    assert tr.iterates == [(0, 0.0, 0.0, 0.0)]


class _CountingQuadratic:
    """A duck-typed f that counts its value calls."""

    def __init__(self, Q, q, r=0.0):
        self.f, self.n, self.values = sq.SmoothQuadratic(Q, q, r), len(q), 0

    def value(self, x):
        self.values += 1
        return self.f.value(x)

    def grad(self, x):
        return self.f.grad(x)

    def hess(self, x):
        return self.f.hess(x)


# run_first_order(..., "lifted", start, steps=6) traces of the version that
# evaluated h twice more per Armijo step
_PINNED_LIFTED_TRACES = {
    "orthant": [
        (0, 0.18871565149725467, 0.9890136500574702, 0.6400000000000001),
        (1, 0.06790258893805534, 0.6925857302531414, 0.40960000000000013),
        (2, 0.02106933252147425, 0.380035659652552, 0.5120000000000001),
        (3, 0.011811476777273677, 0.3608267855892216, 0.40960000000000013),
        (4, 0.006376738727450371, 0.24332116247904548, 0.40960000000000013),
        (5, 0.0, 0.13487168408499448, 0.40960000000000013)],
    "simplex": [
        (0, 0.152081102572573, 0.7488, 1.0),
        (1, 0.029285881864274277, 0.18450306772574654, 1.0),
        (2, 0.00221841894270014, 0.07606085888296214, 1.0),
        (3, 0.00026747824591000224, 0.029943024198744655, 1.0),
        (4, 6.440012192410194e-05, 0.015610885486530795, 1.0),
        (5, 0.0, 0.007572566481927064, 1.0)],
}


@pytest.mark.parametrize("kind", ["orthant", "simplex"])
def test_lifted_descent_evaluates_f_once_per_candidate(kind):
    if kind == "orthant":
        f = _CountingQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0)
        g, start = sq.PolyhedralFunction.orthant_indicator(2), [0.9, -0.4]
    else:
        f = _CountingQuadratic(np.array([[2.0, 0.5], [0.5, 1.0]]),
                               np.array([1.0, 2.0]))
        g, start = sq.PolyhedralFunction.simplex_indicator(2), [0.6, 0.8]
    tr = sq.run_first_order(sq.CompositeProblem(f, g), "lifted",
                            np.array(start), steps=6)
    assert tr.iterates == _PINNED_LIFTED_TRACES[kind]
    # a step of length 0.8^j tried j + 1 candidates
    tried = sum(round(math.log(t) / math.log(0.8)) + 1
                for _, _, _, t in tr.iterates)
    assert f.values == 1 + tried


# The lifted descent and the scatter evaluate a SmoothQuadratic through
# its unchecked kernels; these pins were recorded from the version that
# called the public value and grad, and a duck-typed f (which goes
# through its public methods) must reproduce them too.


def _digest(obj):
    """(length, SHA-256 of the repr) of a trace's iterates or a report."""
    text = repr(obj)
    return (len(obj) if isinstance(obj, list) else None,
            hashlib.sha256(text.encode()).hexdigest())


def _lifted_runs():
    """(name, f data (Q, q, r), g, start, f_star) of three lifted runs."""
    # stationary at (1, 0, 0); the gradient is 0.5 at x_1 and 0 at x_2,
    # so strict complementarity fails and the descent is sublinear
    degenerate = (np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.25],
                            [0.0, 0.25, 1.0]]), np.array([-2.0, 0.0, 0.0]), 0.0)
    sphere = (np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.25],
                        [0.0, 0.0, 1.5, 0.0], [0.0, 0.25, 0.0, 1.0]]),
              np.array([1.0, 2.0, 0.5, 3.0]), 0.0)
    return [
        ("quartic1", (np.eye(1), np.zeros(1), 0.0),
         sq.PolyhedralFunction.orthant_indicator(1), [0.5], 0.0),
        ("orthant3", degenerate, sq.PolyhedralFunction.orthant_indicator(3),
         [0.9, -0.6, 0.7], -1.0),
        ("sphere4", sphere, sq.PolyhedralFunction.simplex_indicator(4),
         [0.5, -0.5, 0.5, 0.5], None),
    ]


_PINNED_LONG_TRACES = {
    "quartic1": (2000, "8479170253194ec9bbcbe0d070acd6dd"
                       "6a0447f2666900e88b2c56a25c508fbd"),
    "orthant3": (2000, "82d82954d6d84c54cc345499a64d5254"
                       "c4d412ca6ae83d726b9eefcfc0cf9952"),
    "sphere4": (30, "78d9de943f6834e93a4cadba6f51f6b4"
                    "37b54e1583f82cb8c58915da0fae1d3a"),
}


def _long_trace(f_type, data, g, start, f_star):
    p = sq.CompositeProblem(f_type(*data), g)
    return sq.run_first_order(p, "lifted", np.array(start), steps=2000,
                              f_star=f_star)


def test_lifted_traces_match_the_checked_version():
    # a duck-typed f is evaluated directly at every candidate
    for name, *run in _lifted_runs():
        tr = _long_trace(_CountingQuadratic, *run)
        assert _digest(tr.iterates) == _PINNED_LONG_TRACES[name], name


# A SmoothQuadratic reads every candidate past t = 1 off its quartic along
# the ray, which rounds differently: quartic1 accepts t = 1 at every step
# and keeps its pin, orthant3 takes the same steps, and sphere4 parts from
# the checked steps where its gap reaches the roundoff floor.
_PINNED_CLOSED_FORM_TRACES = {
    "quartic1": _PINNED_LONG_TRACES["quartic1"],
    "orthant3": (2000, "191e27e620ec02cfd58b05c3e1abbb7d"
                       "f5c9731f0ac3edd52fc233aca1a00c0b"),
    "sphere4": (28, "2b29bfe9eddc983f8ba47e05400ad2a7"
                    "3724e5e407fcf97a4685b7d5abf24d07"),
}


def test_closed_form_lifted_traces_follow_the_checked_steps():
    for name, *run in _lifted_runs():
        tr = _long_trace(sq.SmoothQuadratic, *run)
        checked = _long_trace(_CountingQuadratic, *run)
        floor = 64 * np.finfo(float).eps * (1.0 + abs(checked.f_star))
        k = next((k for k, gap, _, _ in checked.iterates if gap <= floor),
                 len(checked.iterates))
        assert [rec[3] for rec in tr.iterates[:k]] \
            == [rec[3] for rec in checked.iterates[:k]], name
        assert sq.fit_rate(tr).kind == sq.fit_rate(checked).kind, name
        assert _digest(tr.iterates) == _PINNED_CLOSED_FORM_TRACES[name], name


def test_closed_form_lifted_descent_evaluates_f_once_per_step(monkeypatch):
    # t = 1 directly at every step, once more for the start; a backtracked
    # candidate comes off the quartic
    calls = []
    kernel = sq.SmoothQuadratic._value
    monkeypatch.setattr(sq.SmoothQuadratic, "_value",
                        lambda f, x: calls.append(1) or kernel(f, x))
    for name, *run in _lifted_runs():
        calls.clear()
        tr = _long_trace(sq.SmoothQuadratic, *run)
        assert len(calls) == len(tr.iterates) + 1, name


def _ray_case(seed, sphere):
    """(f, y, d, total) of a seeded ray: a SmoothQuadratic with n = 1...6
    scaled by 1, 1e6 or 1e-6, y with zero coordinates, and d the lifted
    gradient at y, tangent to the sphere |y|^2 = total when sphere is
    set (total None otherwise)."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    scale = (1.0, 1e6, 1e-6)[seed % 3]
    A = rng.standard_normal((n, n))
    f = sq.SmoothQuadratic(scale * (A + A.T), scale * rng.standard_normal(n),
                           scale * rng.standard_normal())
    y = rng.standard_normal(n)
    y[rng.random(n) < 0.4] = 0.0
    y[seed % n] = 1.0 + y[seed % n]
    total = float(rng.uniform(0.5, 3.0)) if sphere else None
    if sphere:
        y = kl_lab._sphere_retract(y, math.sqrt(total))
    d = 2.0 * y * f.grad(y * y)
    if sphere:
        d = d - (float(d @ y) / float(y @ y)) * y
    return f, y, d, total


@pytest.mark.parametrize("sphere", [False, True])
def test_ray_values_match_the_formed_candidates(sphere):
    for seed in range(60):
        f, y, d, total = _ray_case(seed, sphere)
        ray = kl_lab._ray_values(f, y, d, total)
        t = 1.0
        for _ in range(30):
            cand = y - t * d
            if sphere:
                cand = kl_lab._sphere_retract(cand, math.sqrt(total))
            direct = f._value(cand * cand)
            assert abs(ray(t) - direct) <= 1e-12 * (1.0 + abs(direct)), seed
            t *= 0.8


def test_ray_values_leave_an_underflowing_sphere_candidate_to_f():
    # |y - t d| is about 1e-200, so N(t) = |y - t d|^2 underflows to 0:
    # the candidate reads nan, and the direct evaluation's retraction
    # raises as it always has
    f = sq.SmoothQuadratic(np.eye(2), np.ones(2))
    y, d = np.array([0.6e-200, 0.8e-200]), np.array([0.8e-200, -0.6e-200])
    ray = kl_lab._ray_values(f, y, d, 1.0)
    assert math.isnan(ray(0.8))
    with pytest.raises(sq.NumericalFailure, match="hit the origin"):
        kl_lab._sphere_retract(y - 0.8 * d, 1.0)


@pytest.mark.parametrize("total", [None, 1.0])
def test_ray_values_read_an_overflow_as_nan_without_a_warning(total):
    f = sq.SmoothQuadratic(np.eye(2), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = kl_lab._ray_values(f, np.array([0.6, 0.8]),
                                 np.array([8e200, -6e200]), total)
        assert math.isnan(ray(0.8))


_FIT_CONFIG = sq.ScatterConfig(n_radii=32, n_dirs=4, seed=5)

_PINNED_FITS = {
    "box": ("de2da0a08e4f2393f705fe6a5c6fd6ef"
            "fc38abd1da0f3d71c3640651e7e0b526", 15.861241090065722),
    "simplex": ("bc669382fed3bc8f231b3cc073cb0632"
                "b4a54f5a6af2ae2e4f03f71098ed5799", 434.61618990606985),
    "polyhedron": ("47dd1e1d097fd6e0c058e1af1e20c3f5"
                   "3338f654be6ec8a84cbc429ce605ffa4", 441.7621322643026),
}


@pytest.mark.parametrize("kind", ["box", "simplex", "polyhedron"])
def test_fits_and_probes_match_the_checked_version(kind):
    p, xbar = _sampled_problem(kind)
    f = p.f
    counting = sq.CompositeProblem(_CountingQuadratic(f.Q, f.q, f.r), p.g)
    for prob in (p, counting):
        report = sq.estimate_exponent(prob, np.sqrt(xbar), _FIT_CONFIG)
        probe = sq.lemma61_probe(prob, xbar, 0.5, _FIT_CONFIG)
        assert (_digest(report)[1], probe) == _PINNED_FITS[kind]


def test_lifted_descent_checks_an_overflowing_candidate():
    # the first candidate y - grad is about -2e200, so x = y*y overflows:
    # the kernel's non-finite value runs the public check on x
    f = sq.SmoothQuadratic(np.eye(1), np.array([1e200]))
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(1))
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(sq.DimensionMismatch,
                          match="x: entries must be finite"):
        sq.run_first_order(p, "lifted", np.array([1.0]), steps=10)


def test_lifted_descent_on_the_sphere_stops_on_an_overflowing_gradient():
    # the residual overflows to inf, every retracted candidate is the
    # origin (its norm overflows too), and no step is accepted
    f = sq.SmoothQuadratic(np.eye(2), np.array([1e200, 0.0]))
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.simplex_indicator(2))
    with pytest.warns(RuntimeWarning, match="overflow"):
        tr = sq.run_first_order(p, "lifted", np.array([0.6, 0.8]), steps=10)
    assert tr.iterates == [(0, 0.0, math.inf, 0.0)]


def test_projected_gradient_linear_on_interior_minimum():
    f = sq.SmoothQuadratic(np.diag([2.0, 0.4]), np.array([-2.0, -0.4]), 1.2)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    tr = sq.run_first_order(p, "original", np.array([3.0, 3.0]), steps=70,
                            f_star=0.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "linear"
    assert 0.60 <= fit.parameter <= 0.68
    assert fit.r_squared > 0.999


def test_projected_gradient_steps_at_the_hessian_norm():
    # Q 1 = 0, so a power iteration from the all-ones vector reads 0 and
    # a unit step overshoots: the step must be 1 / ||Q||_2 = 0.25
    f = sq.SmoothQuadratic(np.array([[2.0, -2.0], [-2.0, 2.0]]), np.zeros(2))
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    tr = sq.run_first_order(p, "original", [1.0, 2.0], steps=50)
    gaps = [rec[1] for rec in tr.iterates]
    assert all(rec[3] == pytest.approx(0.25) for rec in tr.iterates)
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-12


class _LogisticTilt:
    """f(x) = log(1 + exp(-4 (x - 3))) + 0.005 x^2 in one variable.  Its
    Hessian is 0.01 far from 3 but 4.01 at 3, so the Hessian at a start
    of 20 bounds no step."""

    n = 1

    def value(self, x):
        return float(np.logaddexp(0.0, -4.0 * (x[0] - 3.0))
                     + 0.005 * x[0] ** 2)

    def grad(self, x):
        return np.array([-4.0 / (1.0 + np.exp(4.0 * (x[0] - 3.0)))
                         + 0.01 * x[0]])

    def hess(self, x):
        s = 1.0 / (1.0 + np.exp(-4.0 * (x[0] - 3.0)))
        return np.array([[16.0 * s * (1.0 - s) + 0.01]])


def test_projected_gradient_refuses_an_f_that_is_not_a_quadratic():
    # at the step 1/0.01 = 100, x alternated between about 0 and 400 (the
    # gaps 10.0 and 798.0) until the budget; a duck-typed quadratic is
    # refused too, since only the type is checked
    orthant = sq.PolyhedralFunction.orthant_indicator(1)
    for f in (_LogisticTilt(), _CountingQuadratic(np.eye(1), np.zeros(1))):
        p = sq.CompositeProblem(f, orthant)
        with pytest.raises(sq.UnsupportedProblemClass,
                           match="SmoothQuadratic"):
            sq.run_first_order(p, "original", [20.0], steps=300)


def _jittering_polyhedron_run():
    """(problem, start, f_star) of a strongly convex quadratic on a general
    polyhedron in R^3, minimized where one of its rows is active (the
    design of perfbench's kl-lab polyhedron runs, rng seed 25).  Stopped
    only on a bitwise repeat, its projected gradient runs its 150 steps,
    the last ones moving x by about 2.5e-16 to and fro."""
    rng = np.random.default_rng(25)
    n = 3
    k = int(rng.integers(1, n))
    A_act, A_in = rng.standard_normal((k, n)), rng.standard_normal((n, n))
    xbar = rng.uniform(0.5, 1.5, n)
    M = rng.standard_normal((n, n))
    Q = M @ M.T + n * np.eye(n)
    A = np.vstack([A_act, A_in])
    b = np.concatenate([A_act @ xbar, A_in @ xbar + rng.uniform(0.3, 1.0, n)])
    q = -Q @ xbar - A_act.T @ rng.uniform(0.5, 1.5, k)
    p = sq.CompositeProblem(sq.SmoothQuadratic(Q, q), sq.PolyhedralFunction
                            .indicator(sq.Polyhedron(n, A, b)))
    start = xbar + 0.5 * rng.standard_normal(n)
    return p, start, float(0.5 * xbar @ Q @ xbar + q @ xbar)


def test_projected_gradient_stops_once_its_step_is_lost_in_roundoff(
        monkeypatch):
    p, start, f_star = _jittering_polyhedron_run()
    assert p.g.kind == "general"
    tr = sq.run_first_order(p, "original", start, steps=150, f_star=f_star)
    with monkeypatch.context() as m:
        # the stop on a bitwise repeat alone
        m.setattr(kl_lab, "_STEP_ROUNDOFF", 0.0)
        budget = sq.run_first_order(p, "original", start, steps=150,
                                    f_star=f_star)
    assert len(budget.iterates) == 150
    assert all(0.0 < rec[2] * rec[3] <= 1e-14
               for rec in budget.iterates[-20:])
    assert len(tr.iterates) < 100
    assert tr.iterates == budget.iterates[:len(tr.iterates)]
    fit = sq.fit_rate(tr)
    assert fit == sq.fit_rate(budget)
    assert fit.kind == "linear"


def test_lifted_descent_sublinear_on_quartic():
    tr = sq.run_first_order(quartic(), "lifted", np.array([0.5]), steps=2000,
                            f_star=0.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "sublinear"
    assert 1.7 <= fit.parameter <= 2.3


def test_lifted_descent_linear_on_strict():
    tr = sq.run_first_order(strict1(), "lifted", np.array([0.5]), steps=200,
                            f_star=0.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "linear"
    assert fit.parameter < 0.75


def test_lifted_descent_linear_on_simplex_sphere():
    # linear cost on the simplex, lifted to the unit sphere
    f = sq.SmoothQuadratic(np.zeros((2, 2)), np.array([1.0, 2.0]), 0.0)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.simplex_indicator(2))
    y0 = np.sqrt(np.array([0.8, 0.2]))
    tr = sq.run_first_order(p, "lifted", y0, steps=500, f_star=1.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "linear"
    assert fit.parameter < 0.75


def test_fit_rate_stops_at_the_roundoff_floor():
    # linear decay to 1e-16, then a rounding plateau at 4e-16: fit on the
    # whole trace, the plateau reads as sublinear decay
    gaps = [0.5 ** k for k in range(54)] + [4e-16] * 30
    tr = sq.SolverTrace("original",
                        [(k, gap, 0.0, 1.0) for k, gap in enumerate(gaps)],
                        0.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "linear"
    assert fit.parameter == pytest.approx(0.5)


def test_fit_rate_insufficient_trace():
    tr = sq.run_first_order(quartic(), "lifted", np.array([0.5]), steps=5,
                            f_star=0.0)
    with pytest.raises(sq.InsufficientTrace):
        sq.fit_rate(tr)
    flat = sq.SolverTrace("lifted", [(k, 1.0, 1.0, 1.0) for k in range(40)],
                          0.0)
    with pytest.raises(sq.InsufficientTrace, match="gap tail shows no decay"):
        sq.fit_rate(flat)
