"""Unit tests for exponent prediction, scatter estimation, and solver rates."""

import numpy as np
import pytest

import sqreparam as sq


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


def test_strict_complementarity_designed():
    assert not sq.strict_complementarity(quartic(), np.array([0.0]))
    assert sq.strict_complementarity(strict1(), np.array([1.0]))
    assert sq.strict_complementarity(strict2(), np.array([1.0, 0.0]))


def test_strict_complementarity_requires_stationary_point():
    with pytest.raises(sq.NotAStationaryPoint):
        sq.strict_complementarity(strict2(), np.array([0.5, 0.5]))


def test_scatter_config_validation():
    with pytest.raises(sq.InvalidRange):
        sq.ScatterConfig(delta_min=1e-2, delta_max=1e-6)
    with pytest.raises(sq.InvalidRange):
        sq.ScatterConfig(n_radii=0)


def test_sample_scatter_shape_and_order():
    sc = sq.sample_scatter(quartic(), np.array([0.0]))
    assert sc.ndim == 2 and sc.shape[1] == 2
    assert np.all(np.diff(sc[:, 0]) >= 0)
    assert np.all(sc[:, 0] > 0)
    assert np.all(sc[:, 1] >= 0)


def test_sample_scatter_rejects_nonstationary_center():
    with pytest.raises(sq.NotAStationaryPoint):
        sq.sample_scatter(strict1(), np.array([0.5]))


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


def test_estimate_exponent_deterministic_and_accepts_samples():
    p = quartic()
    y = np.array([0.0])
    a = sq.estimate_exponent(p, y)
    b = sq.estimate_exponent(p, y)
    assert a.alpha_hat == b.alpha_hat
    sc = sq.sample_scatter(p, y)
    c = sq.estimate_exponent(p, y, samples=sc)
    assert c.alpha_hat == a.alpha_hat


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
    # one model at the centre and one per kept sample, each evaluating
    # grad f once: 1 + 32 * 4 on the strict instance, where every sample
    # clears the gap floor
    builds, grads = [], []
    init, grad = sq.LocalModel.__init__, sq.SmoothQuadratic.grad

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counted_grad(self, x):
        grads.append(x)
        return grad(self, x)

    monkeypatch.setattr(sq.LocalModel, "__init__", counted_init)
    monkeypatch.setattr(sq.SmoothQuadratic, "grad", counted_grad)
    config = sq.ScatterConfig(n_radii=32, n_dirs=4)
    sq.lemma61_probe(strict1(), np.array([1.0]), 0.0, config)
    assert len(grads) == len(builds) == 129


def test_lemma61_probe_errors():
    with pytest.raises(sq.InvalidRange):
        sq.lemma61_probe(quartic(), np.array([0.0]), 1.0)
    with pytest.raises(sq.InvalidRange):
        sq.lemma61_probe(quartic(), np.array([0.0]), -0.1)
    indefinite = sq.CompositeProblem(
        sq.SmoothQuadratic(-np.eye(1), np.zeros(1)),
        sq.PolyhedralFunction.orthant_indicator(1))
    with pytest.raises(sq.NotConvex):
        sq.lemma61_probe(indefinite, np.array([0.0]), 0.5)
    with pytest.raises(sq.NotAMinimizer):
        sq.lemma61_probe(strict1(), np.array([0.0]), 0.5)


def test_run_first_order_rejects_unknown_variant():
    with pytest.raises(sq.UnsupportedProblemClass):
        sq.run_first_order(quartic(), "bogus", np.array([1.0]), steps=5)


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


def test_projected_gradient_linear_on_interior_minimum():
    f = sq.SmoothQuadratic(np.diag([2.0, 0.4]), np.array([-2.0, -0.4]), 1.2)
    p = sq.CompositeProblem(f, sq.PolyhedralFunction.orthant_indicator(2))
    tr = sq.run_first_order(p, "original", np.array([3.0, 3.0]), steps=70,
                            f_star=0.0)
    fit = sq.fit_rate(tr)
    assert fit.kind == "linear"
    assert 0.60 <= fit.parameter <= 0.68
    assert fit.r_squared > 0.999


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
