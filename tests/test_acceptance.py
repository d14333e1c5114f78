"""Acceptance batteries: one verdict line per criterion, with time budgets."""

import time

import numpy as np

import sqreparam as sq
from sqreparam.checks import (
    d2_designed,
    grid_sandwich,
    lp_vs_enumeration,
    projection_idempotence,
    ri_catalog,
    smooth_identity,
)
from sqreparam.cli import main
from sqreparam.oracles import (
    make_stationary_orthant_instance,
    make_stationary_pieces_instance,
    random_nonsmooth_instance,
    random_orthant_instance,
)


def _verdict(record, n, ok, detail, *checks):
    """Record the verdict line; a failing line also names the first
    failure of each battery that failed."""
    detail += "".join(f"; {c.detail}" for c in checks if not c.ok)
    record(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _quartic():
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.zeros(1)),
        sq.PolyhedralFunction.orthant_indicator(1))


def _strict1():
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(1), np.array([-1.0]), 0.5),
        sq.PolyhedralFunction.orthant_indicator(1))


def _spur2():
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(2), np.array([-1.0, 1.0]), 1.0),
        sq.PolyhedralFunction.orthant_indicator(2))


def _simplex_linear():
    return sq.CompositeProblem(
        sq.SmoothQuadratic(np.zeros((2, 2)), np.array([1.0, 2.0]), 0.0),
        sq.PolyhedralFunction.simplex_indicator(2))


def test_criterion_1_residual_identity(record):
    t0 = time.perf_counter()
    smooth = smooth_identity(0, 100)
    grid = grid_sandwich(0, 100)
    dt = time.perf_counter() - t0
    ok = smooth.ok and grid.ok and dt < 30.0
    _verdict(record, 1, ok,
             f"residual identity; smooth worst diff {smooth.worst:.2e} (tol "
             f"1e-08), nonsmooth {len(grid.failures)}/{grid.count} outside "
             f"grid sandwich, {dt:.1f}s (< 30s)", smooth, grid)


def test_criterion_2_correspondence(record):
    t0 = time.perf_counter()
    inconsistent = 0
    for s in range(200):
        seed = 5000 + s
        kind = s % 5
        if kind == 0:
            p, y = random_orthant_instance(seed)
        elif kind == 1:
            p, y, _ = make_stationary_orthant_instance(seed)
        elif kind == 2:
            p, y, _ = make_stationary_orthant_instance(seed, spurious=True)
        elif kind == 3:
            p, y = random_nonsmooth_instance(seed)
        else:
            p, y, _ = make_stationary_pieces_instance(seed)
        try:
            rep = sq.correspondence_check(p, y)
        except sq.InconsistencyDetected:
            inconsistent += 1
            continue
        if not rep.consistent:
            inconsistent += 1
    designed_ok = True
    # orthant demo: minimizer and the spurious origin
    spur = _spur2()
    rep = sq.correspondence_check(spur, np.array([1.0, 0.0]))
    designed_ok &= rep.consistent and rep.stationary_for_phi
    spur_rep = sq.correspondence_check(spur, np.zeros(2))
    designed_ok &= spur_rep.consistent
    spurious_ok = spur_rep.stationary_for_Phi and not spur_rep.stationary_for_phi
    # simplex demo at a vertex
    rep = sq.correspondence_check(_simplex_linear(), np.array([1.0, 0.0]))
    designed_ok &= rep.consistent and rep.stationary_for_phi
    # linear-equality demo: x1 = x2 within the orthant
    dom = sq.Polyhedron(2, A_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.0]))
    geq = sq.PolyhedralFunction(2, domain=dom)
    peq = sq.CompositeProblem(
        sq.SmoothQuadratic(np.eye(2), np.array([-1.0, -1.0]), 1.0), geq)
    rep = sq.correspondence_check(peq, np.array([1.0, 1.0]))
    designed_ok &= rep.consistent and rep.stationary_for_phi
    dt = time.perf_counter() - t0
    ok = inconsistent == 0 and designed_ok and spurious_ok and dt < 30.0
    _verdict(record, 2, ok,
             f"correspondence; {inconsistent}/200 inconsistent, designed cases "
             f"{'ok' if designed_ok else 'bad'}, spurious origin "
             f"{'classified' if spurious_ok else 'missed'}, {dt:.1f}s (< 30s)")


def test_criterion_3_second_subderivative(record):
    t0 = time.perf_counter()
    d2 = d2_designed()
    v_orth, v_simp, v_point = d2.values
    dt = time.perf_counter() - t0
    ok = d2.ok and dt < 10.0
    _verdict(record, 3, ok,
             f"second subderivative; designed values ({v_orth:.1e}, "
             f"{v_simp:.3f}, {v_point}), sampling agreement "
             f"{'ok' if d2.ok else 'bad'}, witness spread {d2.worst:.1e} "
             f"(tol 1e-08), {dt:.1f}s (< 10s)", d2)


def test_criterion_4_kl_exponents(record):
    t0 = time.perf_counter()
    quartic = _quartic()
    rep_q = sq.estimate_exponent(quartic, np.array([0.0]),
                                 inputs=sq.ExponentInputs(0.5, False, 1.0))
    sc_q = sq.strict_complementarity(quartic, np.array([0.0]))
    t_quartic = time.perf_counter() - t0

    t1 = time.perf_counter()
    strict = _strict1()
    rep_s = sq.estimate_exponent(strict, np.array([1.0]),
                                 inputs=sq.ExponentInputs(0.5, True))
    sc_s = sq.strict_complementarity(strict, np.array([1.0]))
    t_strict = time.perf_counter() - t1

    ok = (0.70 <= rep_q.alpha_hat <= 0.80 and rep_q.predicted == 0.75
          and sc_q is False and t_quartic < 10.0
          and 0.45 <= rep_s.alpha_hat <= 0.55 and rep_s.predicted == 0.5
          and sc_s is True and t_strict < 10.0)
    _verdict(record, 4, ok,
             f"KL exponents; quartic alpha_hat {rep_q.alpha_hat:.3f} in "
             f"[0.70, 0.80] strict_comp {sc_q} ({t_quartic:.1f}s), strict "
             f"alpha_hat {rep_s.alpha_hat:.3f} in [0.45, 0.55] strict_comp "
             f"{sc_s} ({t_strict:.1f}s), each < 10s")


def test_criterion_5_rate_dichotomy(record):
    t0 = time.perf_counter()
    tr_s = sq.run_first_order(_strict1(), "lifted", np.array([0.5]),
                              steps=10000, f_star=0.0)
    fit_s = sq.fit_rate(tr_s)
    tr_q = sq.run_first_order(_quartic(), "lifted", np.array([0.5]),
                              steps=10000, f_star=0.0)
    fit_q = sq.fit_rate(tr_q)
    dt = time.perf_counter() - t0
    ok = (fit_s.kind == "linear" and fit_q.kind == "sublinear"
          and 1.7 <= fit_q.parameter <= 2.3 and dt < 10.0)
    _verdict(record, 5, ok,
             f"rate dichotomy; strict {fit_s.kind} rho {fit_s.parameter:.3f}, "
             f"quartic {fit_q.kind} power {fit_q.parameter:.3f} in [1.7, 2.3] "
             f"over 10^4 steps, {dt:.1f}s (< 10s)")


def test_criterion_6_kernel_soundness(record):
    t0 = time.perf_counter()
    lp = lp_vs_enumeration(0, 500)
    proj = projection_idempotence(0, 100)
    ri = ri_catalog()
    dt = time.perf_counter() - t0
    ok = lp.ok and proj.ok and ri.ok
    _verdict(record, 6, ok,
             f"kernel soundness; {lp.count} LPs worst rel gap {lp.worst:.2e} "
             f"(tol 1e-09), projection drift {proj.worst:.2e} (tol 1e-09), "
             f"ri catalog {ri.count - len(ri.failures)}/{ri.count}, {dt:.1f}s",
             lp, proj, ri)


def test_criterion_7_structural_invariants(record):
    t0 = time.perf_counter()
    # domain identity: the lifted value equals the composite value at y*y,
    # infinities included
    id_bad = 0
    rng = np.random.default_rng(123)
    for s in range(60):
        p, y = (random_orthant_instance(s) if s % 2 == 0
                else random_nonsmooth_instance(s))
        for z in (y, rng.standard_normal(p.n), 3.0 * rng.standard_normal(p.n)):
            lifted = sq.lift_eval(p, z)
            direct = sq.phi_value(p, z * z)
            if np.isinf(direct) or np.isinf(lifted):
                if lifted != direct:
                    id_bad += 1
            elif abs(lifted - direct) > 1e-12 * (1.0 + abs(direct)):
                id_bad += 1

    # closedness along feasible segments: values converge to the limit value
    cl_bad = 0
    for s in range(40):
        p, y = (random_orthant_instance(s) if s % 2 == 0
                else random_nonsmooth_instance(s))
        srng = np.random.default_rng(9000 + s)
        base = sq.lift_eval(p, y)
        x = y * y
        x_other = sq.project_onto_polyhedron(
            p.g.domain, x + srng.uniform(0.1, 1.0, size=p.n))
        vals = []
        for k in range(1, 9):
            t = 0.5 ** k
            xk = (1 - t) * x + t * x_other
            yk = np.sign(y + (y == 0)) * np.sqrt(np.maximum(xk, 0.0))
            vals.append(sq.lift_eval(p, yk))
        vals = np.asarray(vals)
        if not np.isfinite(vals).all():
            cl_bad += 1
            continue
        gaps = np.abs(vals - base)
        if gaps[-1] > max(0.1 * gaps[3], 1e-7 * (1.0 + abs(base))):
            cl_bad += 1

    flip_worst = 0.0
    frng = np.random.default_rng(5)
    for s in range(100):
        p, y = random_orthant_instance(s)
        flips = frng.choice([-1.0, 1.0], size=p.n)
        flip_worst = max(flip_worst, abs(sq.lifted_residual(p, flips * y)
                                         - sq.lifted_residual(p, y)))
    dt = time.perf_counter() - t0
    ok = id_bad == 0 and cl_bad == 0 and flip_worst <= 1e-12
    _verdict(record, 7, ok,
             f"structural invariants; domain identity {id_bad}/180 bad, "
             f"closure {cl_bad}/40 bad, sign-flip worst {flip_worst:.1e} "
             f"(tol 1e-12), {dt:.1f}s")


def test_criterion_8_selftest_within_budget(record, suite_start, capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    groups = out.count("[PASS]")
    elapsed = time.perf_counter() - suite_start
    ok = rc == 0 and groups >= 6 and elapsed < 110.0
    _verdict(record, 8, ok,
             f"selftest exit {rc} with {groups} groups passing; suite at "
             f"{elapsed:.1f}s of 120s budget (terminal summary has the total)")
