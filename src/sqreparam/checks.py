"""Oracle-agreement batteries: the fast path against brute force.

Each battery runs a kernel on seeded or designed instances, judges every
instance against an oracle from ``sqreparam.oracles`` or a designed
value, and returns a ``CheckResult``.  ``CHECKS`` is the registry that
``sqreparam selftest`` runs; the acceptance suite calls the same
batteries with larger counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import (_qp_active_set, enumerate_vertices,
                      fd_second_subderivative, grid_min_norm,
                      grid_min_norm_gap_bound, random_lp_instance,
                      random_nonsmooth_instance, random_orthant_instance)
from .polyfunc import PolyhedralFunction, g_eval, g_subdiff
from .polyhedra import (GeneratorSet, LPStatus, Polyhedron, check_int,
                        lp_solve, project_onto_polyhedron,
                        vrep_ri_membership)
from .reparam import lifted_residual
from .second_order import d2_lifted_g


@dataclass(frozen=True)
class CheckResult:
    """What one battery found.

    count: instances or designed cases run.  failures: one message per
    broken gate, in run order.  worst: the battery's headline error
    (value gap, drift, residual difference or witness spread), else 0.
    summary: the account of a pass.  values: the designed d2 values.
    """

    count: int
    failures: tuple
    worst: float
    summary: str
    values: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def detail(self) -> str:
        """The summary of a pass, else the first failure."""
        return self.failures[0] if self.failures else self.summary


def _sweep(seed: int, count: int, instance, summary: str) -> CheckResult:
    """Run instance(s) for s < count, each returning (error, broken gates);
    summary is formatted with the count and the worst error.  A negative
    seed raises InvalidRange."""
    check_int(seed, "seed")
    failures, worst = [], 0.0
    for s in range(count):
        error, broken = instance(s)
        worst = max(worst, error)
        failures += [f"instance {s}: {why}" for why in broken]
    return CheckResult(count, tuple(failures), worst,
                       summary.format(count, worst))


def lp_vs_enumeration(seed: int, count: int) -> CheckResult:
    """lp_solve against the best vertex of random_lp_instance(seed + s).

    Gates: status OPTIMAL, a vertex found, value gap <= 1e-9 relative to
    1 + |best vertex value|, duality gap <= 1e-9 relative to 1 + |value|.
    """
    def instance(s):
        c, P = random_lp_instance(seed + s)
        out = lp_solve(c, A_ineq=P.A_ineq, b_ineq=P.b_ineq,
                       A_eq=P.A_eq, b_eq=P.b_eq)
        if out.status is not LPStatus.OPTIMAL:
            return 0.0, [f"status {out.status.name}"]
        verts = enumerate_vertices(P)
        if not len(verts):
            return 0.0, ["no vertices found"]
        best = float(np.max(verts @ c))
        gap = abs(out.value - best) / (1.0 + abs(best))
        broken = [] if gap <= 1e-9 else [f"value off by {gap:.2e}"]
        if not abs(out.duality_gap) <= 1e-9 * (1.0 + abs(out.value)):
            broken.append(f"duality gap {out.duality_gap:.2e}")
        return gap, broken
    return _sweep(seed, count, instance,
                  "{} instances, worst relative value gap {:.1e}")


def projection_idempotence(seed: int, count: int) -> CheckResult:
    """Projecting a projection again moves it by at most 1e-9.

    Instance k projects a point x drawn in turn from one generator seeded
    seed + 77 onto random_lp_instance(seed + 5k); the projection must
    also be feasible to 1e-8 and within 1e-9 (1 + |x|) of the primal
    active-set QP of oracles, a second active-set engine kept as the
    reference, with the identity Hessian started at the witness of a
    zero-objective LP, so that it is the optimum, not only a fixed point.
    """
    rng = np.random.default_rng(check_int(seed, "seed") + 77)

    def instance(k):
        _, P = random_lp_instance(seed + 5 * k)
        x = rng.standard_normal(P.n)
        z = project_onto_polyhedron(P, x)
        drift = float(np.linalg.norm(project_onto_polyhedron(P, z) - z))
        broken = [] if drift <= 1e-9 else [f"projection drift {drift:.2e}"]
        if not P.max_violation(z) <= 1e-8:
            broken.append("infeasible projection")
        start = lp_solve(np.zeros(P.n), None, None, P.A_eq, P.b_eq,
                         P.A_ineq, P.b_ineq).witness
        ref = _qp_active_set(np.eye(P.n), -x, P.A_eq, P.b_eq, P.A_ineq,
                             P.b_ineq, start)
        gap = float(np.max(np.abs(z - ref)))
        if not gap <= 1e-9 * (1.0 + float(np.linalg.norm(x))):
            broken.append(f"projection off the primal QP by {gap:.2e}")
        return drift, broken
    return _sweep(seed, count, instance, "{} instances, worst drift {:.1e}")


def smooth_identity(seed: int, count: int) -> CheckResult:
    """Lifted residual against its orthant closed form ||2 y o grad f(y*y)||
    on random_orthant_instance(seed + s), to 1e-8 absolute."""
    def instance(s):
        p, y = random_orthant_instance(seed + s)
        analytic = float(np.linalg.norm(2.0 * y * p.f.grad(y * y)))
        diff = abs(lifted_residual(p, y) - analytic)
        return diff, [] if diff <= 1e-8 else [f"residual off by {diff:.2e}"]
    return _sweep(seed, count, instance,
                  "{} instances, worst absolute error {:.1e}")


def grid_sandwich(seed: int, count: int) -> CheckResult:
    """Half the lifted residual against the grid oracle (resolution 12).

    On random_nonsmooth_instance(seed + s), half the residual is the
    exact distance with weights |y|: the grid must not beat it by more
    than 1e-7 relative, nor exceed it by more than its gap bound + 1e-9.
    """
    def instance(s):
        p, y = random_nonsmooth_instance(seed + s)
        S = g_subdiff(p.g, y * y)
        half = 0.5 * lifted_residual(p, y)
        grid = grid_min_norm(S, p.f.grad(y * y), np.abs(y), resolution=12)
        bound = grid_min_norm_gap_bound(S, np.abs(y), resolution=12)
        if grid < half - 1e-7 * (1.0 + half):
            return 0.0, [f"grid {grid:.6g} beats QP {half:.6g}"]
        if not grid - half <= bound + 1e-9:
            return 0.0, [f"grid gap {grid - half:.3g} exceeds bound "
                         f"{bound:.3g}"]
        return 0.0, []
    return _sweep(seed, count, instance,
                  "{} instances within grid tolerance")


def ri_catalog() -> CheckResult:
    """vrep_ri_membership on designed sets, each queried inside and on
    its relative boundary; the catalog must hold at least 10 cases."""
    catalog = [
        (GeneratorSet(1, points=[[0.0], [2.0]]),
         [([1.0], True), ([2.0], False), ([0.0], False)]),
        (GeneratorSet(1, points=[[0.0]], rays=[[1.0]]),
         [([0.0], False), ([1.0], True)]),
        (GeneratorSet(2, points=[[0.0, 0.0]], rays=[[-1.0, 0.0], [0.0, -1.0]]),
         [([-1.0, -1.0], True), ([-1.0, 0.0], False), ([0.0, 0.0], False)]),
        (GeneratorSet(2, points=[[0.0, 1.0]], rays=[[0.0, -1.0]]),
         [([0.0, 0.0], True), ([0.0, 1.0], False), ([1.0, 0.0], False)]),
        (GeneratorSet(2, points=[[0.0, 0.0]], lines=[[1.0, 0.0]]),
         [([3.0, 0.0], True), ([0.0, 0.1], False)]),
        (GeneratorSet(2, points=[[0.25, -1.5]]),
         [([0.25, -1.5], True), ([0.25, -1.4], False)]),
    ]
    cases = [(S, z, want) for S, queries in catalog for z, want in queries]
    failures = [f"case {i}: expected {want}"
                for i, (S, z, want) in enumerate(cases)
                if vrep_ri_membership(S, np.array(z)) is not want]
    if len(cases) < 10:
        failures.append(f"only {len(cases)} catalog cases")
    return CheckResult(len(cases), tuple(failures), 0.0,
                       f"{len(cases)} catalog cases")


def d2_designed() -> CheckResult:
    """The lifted second subderivative on three designed cases.

    Gates: the values 0 (orthant), 2 (simplex) and +inf (point domain)
    to 1e-9; finite differences within 0.05 (1 + |value|) on the finite
    cases, multiplier 2 y o v, and +inf on the point; a spread <= 1e-8
    between multipliers that agree on the support (worst).
    """
    orth = PolyhedralFunction.orthant_indicator(2)
    simp = PolyhedralFunction.simplex_indicator(2)
    point = PolyhedralFunction.indicator(Polyhedron(1, A_eq=[[1.0]],
                                                    b_eq=[0.0]))
    y10, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    values = (d2_lifted_g(orth, y10, [0.0, -3.0], e2),
              d2_lifted_g(simp, y10, [1.0, 0.0], e2),
              d2_lifted_g(point, [0.0], [0.0], [1.0]))
    failures = [f"{name} case: {val!r} instead of {want}"
                for name, val, want in zip(("orthant", "simplex", "point"),
                                           values, (0.0, 2.0, math.inf))
                if not (val == want or abs(val - want) <= 1e-9)]

    for name, g, ybar, v, w in (("orthant", orth, y10, [0.0, -3.0], e2),
                                ("simplex", simp, y10, [1.0, 0.0], e2),
                                ("simplex", simp, y10, [1.0, 0.0], 2.0 * e2),
                                ("point", point, np.zeros(1), [0.0], [1.0])):
        val = d2_lifted_g(g, ybar, v, w)
        fd = fd_second_subderivative(lambda z, g=g: g_eval(g, z * z), ybar,
                                     2.0 * ybar * np.array(v), w)
        if not (fd == val if math.isinf(val)
                else abs(fd - val) <= 0.05 * (1.0 + abs(val))):
            failures.append(f"{name} case: fd {fd!r} vs {val!r}")

    spread = max(abs(values[1] - d2_lifted_g(simp, y10, [1.0, 9.0], e2)),
                 abs(values[0] - d2_lifted_g(orth, y10, [0.0, -7.0], e2)))
    if not spread <= 1e-8:
        failures.append(f"witness spread {spread:.1e}")
    return CheckResult(3, tuple(failures), spread,
                       "3 designed cases, finite ones fd-checked", values)


# (group name, battery, selftest instance count); a count of None marks a
# fixed case list, run without arguments
CHECKS = (
    ("lp-vs-vertex-enumeration", lp_vs_enumeration, 60),
    ("projection-idempotence", projection_idempotence, 40),
    ("smooth-lift-residual-identity", smooth_identity, 50),
    ("nonsmooth-residual-grid-agreement", grid_sandwich, 8),
    ("ri-membership-catalog", ri_catalog, None),
    ("second-subderivative-designed-cases", d2_designed, None),
)
