"""Seeded workload inputs, built from numpy alone.

Nothing here imports sqreparam: the inputs must not move when the
program (or its reference generators in ``sqreparam.oracles``) changes.
Every generator takes the workload seed and draws from one
``numpy.random.Generator``.  Each input carries the truth it was
designed to have, so the checks never ask the program under test what
the right answer is.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Certificates whose verdicts are decided by construction.  The five
# criterion-2 families appear in equal shares.
CERTIFY_FAMILIES = ("orthant-random", "orthant-stationary", "orthant-spurious",
                    "pieces-random", "pieces-stationary")
CERTIFY_POOL = 300

# The shipped problems at the points their documentation names.  Truth:
# (stationary for Phi, stationary for phi, strict complementarity).
SHIPPED_POINTS = (
    ("problems/nnls1.json", [1.0], (True, True, True)),
    ("problems/orthant2.json", [0.0, 0.0], (True, False, None)),
    ("problems/orthant2.json", [1.0, 0.0], (True, True, True)),
    ("problems/quartic1.json", [0.0], (True, True, False)),
    ("problems/simplex2.json", [1.0, 0.0], (True, True, True)),
    ("problems/pieces2.json", [0.5 ** 0.5, 0.5 ** 0.5], (True, True, True)),
)


def _pd_matrix(rng, n):
    M = rng.standard_normal((n, n))
    return M.T @ M / n + 0.1 * np.eye(n)


def _signs(rng, n):
    return rng.integers(0, 2, n) * 2.0 - 1.0


def _problem_dict(Q, q, r=0.0, pieces=None, A_ineq=None, b_ineq=None):
    n = len(q)
    g = {}
    if pieces is not None:
        g["pieces"] = [{"a": list(map(float, a)), "b": float(b)}
                       for a, b in zip(*pieces)]
    if A_ineq is not None:
        g["domain"] = {"A_ineq": np.asarray(A_ineq, float).tolist(),
                       "b_ineq": np.asarray(b_ineq, float).tolist()}
    return {"n": n,
            "f": {"Q": np.asarray(Q, float).tolist(),
                  "q": np.asarray(q, float).tolist(), "r": float(r)},
            "g": g}


# ---------------------------------------------------------------------------
# certify-stream
# ---------------------------------------------------------------------------


def _orthant_truth(Q, q, y):
    """Closed-form KKT verdicts on the orthant, with a scale-aware margin."""
    x = y * y
    grad = Q @ x + q
    margin = 1e-6 * (1.0 + float(np.linalg.norm(grad)))
    on = x > 0.0
    lifted = bool(np.all(np.abs(y * grad) <= margin))
    original = bool(np.all(np.abs(grad[on]) <= margin)
                    and np.all(grad[~on] >= -margin))
    strict = bool(np.all(grad[~on] > margin)) if original else None
    return lifted, original, strict


def _certify_instance(rng, family, j):
    """(problem dict, y, truth) for draw j of one criterion-2 family.

    Sizes (n, pieces, rows) step through their ranges with j instead of
    being drawn, so every seed has the same mix of sizes and only the
    data varies.  truth maps verdict names to designed values; a missing
    key is not decided by construction and is not checked.
    """
    if family == "orthant-random":
        n = 1 + j % 6
        M = rng.standard_normal((n, n))
        Q = 0.5 * (M + M.T)
        q = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.35] = 0.0
        lifted, original, strict = _orthant_truth(Q, q, y)
        truth = {"Phi": lifted, "phi": original}
        if strict is not None:
            truth["strict"] = strict
        return _problem_dict(Q, q, rng.standard_normal()), y, truth
    if family in ("orthant-stationary", "orthant-spurious"):
        spurious = family == "orthant-spurious"
        n = 2 + j % 5
        support = rng.random(n) < 0.5
        if spurious and support.all():
            support[int(rng.integers(0, n))] = False
        xbar = np.where(support, rng.uniform(0.3, 2.0, n), 0.0)
        Q = _pd_matrix(rng, n)
        t = np.where(support, 0.0, rng.uniform(0.1, 1.0, n))
        if spurious:
            off = np.nonzero(~support)[0]
            t[off[int(rng.integers(0, off.size))]] = -float(rng.uniform(0.2, 1.0))
        y = _signs(rng, n) * np.sqrt(xbar)
        truth = ({"Phi": True, "phi": False, "negative_direction": True}
                 if spurious else {"Phi": True, "phi": True, "strict": True})
        return _problem_dict(Q, t - Q @ xbar), y, truth
    if family == "pieces-random":
        n = 1 + j % 4
        k = 1 + (j // 4) % 4
        m = 1 + j % 6
        x = rng.uniform(0.2, 1.5, n)
        x[rng.random(n) < 0.2] = 0.0
        A = rng.standard_normal((m, n))
        slack = rng.uniform(0.1, 1.0, m)
        slack[rng.random(m) < 0.4] = 0.0          # rows active at x
        b = A @ x + slack
        M = rng.standard_normal((n, n))
        Q = 0.5 * (M + M.T)
        pieces = (rng.standard_normal((k, n)), rng.standard_normal(k))
        y = _signs(rng, n) * np.sqrt(x)
        return (_problem_dict(Q, rng.standard_normal(n), 0.0, pieces, A, b),
                y, {})
    if family == "pieces-stationary":
        n = 1 + j % 4
        xbar = rng.uniform(0.3, 1.5, n)
        A = rng.standard_normal((2, n))
        vals = A @ xbar
        b = np.array([0.0, float(vals[0] - vals[1])])
        Q = _pd_matrix(rng, n)
        theta = float(rng.uniform(0.1, 0.9))
        q = -(theta * A[0] + (1.0 - theta) * A[1]) - Q @ xbar
        y = _signs(rng, n) * np.sqrt(xbar)
        return (_problem_dict(Q, q, 0.0, (A, b)), y,
                {"Phi": True, "phi": True, "strict": True})
    raise ValueError(family)


def _rescale(d, factor):
    """Multiply f + g by a positive factor; the domain is unchanged."""
    f = d["f"]
    f["Q"] = (np.asarray(f["Q"]) * factor).tolist()
    f["q"] = (np.asarray(f["q"]) * factor).tolist()
    f["r"] = f["r"] * factor
    for piece in d["g"].get("pieces", []):
        piece["a"] = [a * factor for a in piece["a"]]
        piece["b"] = piece["b"] * factor


def _vec_arg(v):
    return ",".join(format(float(c), ".17g") for c in v)


def certify_pool(seed, workdir):
    """Write the certify problem files; return one spec per instance.

    One instance in five is rescaled, by 1e6 and 1e-6 in turn; the
    rescaled instances rotate through the families so each family gets
    both factors.
    """
    rng = np.random.default_rng([seed, 1])
    os.makedirs(workdir, exist_ok=True)
    specs = []
    for path, y, (lifted, original, strict) in SHIPPED_POINTS:
        truth = {"Phi": lifted, "phi": original}
        if strict is not None:
            truth["strict"] = strict
        if not original:
            truth["negative_direction"] = True
        specs.append({"file": path, "y": _vec_arg(y), "family": "shipped",
                      "scale": 1.0, "truth": truth})
    rescaled = 0
    for i in range(CERTIFY_POOL):
        family = CERTIFY_FAMILIES[i % 5]
        d, y, truth = _certify_instance(rng, family, i // 5)
        scale = 1.0
        if (i // 5 + i) % 5 == 0:
            scale = 1e6 if rescaled % 2 == 0 else 1e-6
            rescaled += 1
            _rescale(d, scale)
        path = os.path.join(workdir, f"certify-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        specs.append({"file": path, "y": _vec_arg(y), "family": family,
                      "scale": scale, "truth": truth})
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


# ---------------------------------------------------------------------------
# kl-lab
# ---------------------------------------------------------------------------


def _stationary_instance(rng, kind, n, degenerate=False):
    """Quadratic on an orthant, simplex or box, stationary at xbar.

    Strict complementarity holds by construction unless ``degenerate``
    (orthant only): then one coordinate sits at zero with a zero
    gradient.  Returns (Q, q, domain kwargs, xbar)."""
    Q = _pd_matrix(rng, n)
    if kind == "orthant":
        support = rng.random(n) < 0.5
        if degenerate:
            support[int(rng.integers(0, n))] = False
        xbar = np.where(support, rng.uniform(0.3, 2.0, n), 0.0)
        grad = np.where(support, 0.0, rng.uniform(0.2, 1.0, n))
        if degenerate:
            grad[np.nonzero(~support)[0][0]] = 0.0
        dom = {}
    elif kind == "box":
        upper = rng.uniform(1.0, 2.0, n)
        state = rng.integers(0, 3, n)            # 0 at zero, 1 inside, 2 at upper
        xbar = np.where(state == 0, 0.0,
                        np.where(state == 1, upper * rng.uniform(0.2, 0.8, n),
                                 upper))
        grad = np.where(state == 0, rng.uniform(0.2, 1.0, n),
                        np.where(state == 1, 0.0, -rng.uniform(0.2, 1.0, n)))
        dom = {"A_ineq": np.eye(n), "b_ineq": upper}
    elif kind == "simplex":
        total = float(rng.uniform(0.5, 2.0))
        support = rng.random(n) < 0.5
        support[int(rng.integers(0, n))] = True
        w = np.where(support, rng.uniform(0.3, 1.0, n), 0.0)
        xbar = total * w / w.sum()
        mu = float(rng.standard_normal())
        grad = np.where(support, -mu, -mu + rng.uniform(0.2, 1.0, n))
        dom = {"A_eq": np.ones((1, n)), "b_eq": np.array([total])}
    else:
        raise ValueError(kind)
    return Q, grad - Q @ xbar, dom, xbar


def _polyhedron_instance(rng, n):
    """Strongly convex quadratic on a general polyhedron, minimized at an
    xbar inside the orthant where 1 <= k < n user rows are active with
    strictly positive multipliers and n further rows are slack.
    Returns (Q, q, domain kwargs, xbar)."""
    k = int(rng.integers(1, n))
    A_act = rng.standard_normal((k, n))
    A_in = rng.standard_normal((n, n))
    xbar = rng.uniform(0.5, 1.5, n)
    Q = _pd_matrix(rng, n)
    A = np.vstack([A_act, A_in])
    b = np.concatenate([A_act @ xbar, A_in @ xbar + rng.uniform(0.3, 1.0, n)])
    q = -Q @ xbar - A_act.T @ rng.uniform(0.5, 1.5, k)
    return Q, q, {"A_ineq": A, "b_ineq": b}, xbar


# Solver runs per cycle: (domain kind, strict, variant, steps).  The
# lifted runs are Armijo descent on f(y*y) over the orthant and
# sphere-retracted descent for the simplex; the original-variable runs
# are projected gradient onto a general polyhedron.
_SOLVER_RUNS = (2 * [("orthant", True, "lifted", 2000)]
                + 2 * [("orthant", False, "lifted", 2000)]
                + 4 * [("simplex", True, "lifted", 2000)]
                + 4 * [("polyhedron", True, "original", 150)])

# The seed's task pool: small enough that a run passes over it twice
# (one pass takes about 16 s on the 2-core host of NOTES.md).
KL_CYCLES = 8


def kl_plan(seed):
    """KL_CYCLES cycles of the reduced experiment plan, each a list of
    specs in run order.  Every cycle has the same calls and sizes on
    freshly drawn instances, fit seeds and starts.

    Each spec names the problem data, the point, the call and the
    designed outcome.
    """
    rng = np.random.default_rng([seed, 2])
    return [_kl_cycle(rng, c) for c in range(KL_CYCLES)]


def _kl_cycle(rng, c):
    quartic1 = (np.eye(1), np.zeros(1), {}, np.zeros(1))
    nnls1 = (np.eye(1), -np.ones(1), {}, np.ones(1))
    problems = [("quartic1",) + quartic1 + (False,),
                ("nnls1",) + nnls1 + (True,)]
    for i in range(12):
        kind = ("orthant", "simplex", "box")[i % 3]
        n = 1 + i % 8 if kind != "simplex" else 2 + i % 7
        Q, q, dom, xbar = _stationary_instance(rng, kind, n)
        problems.append((f"{kind}{n}", Q, q, dom, xbar, True))

    # strict complementarity on every other problem (quartic1 and nnls1
    # included) keeps the cheap calls below half of the cycle, so the
    # median latency falls inside the band of fits and probes
    specs = []
    for i, (name, Q, q, dom, xbar, strict) in enumerate(problems):
        base = {"problem": name, "Q": Q, "q": q, "dom": dom, "xbar": xbar,
                "strict": strict}
        fit_seed = int(rng.integers(0, 2 ** 31))
        specs.append(dict(base, call="estimate_exponent", seed=fit_seed))
        specs.append(dict(base, call="lemma61_probe", seed=fit_seed))
        if i < 2 or i % 2:
            specs.append(dict(base, call="strict_complementarity"))

    # solver sizes rotate through 1..5 (orthant) or 2..5 over the cycles,
    # so every pool holds each size in nearly equal shares
    for j, (kind, strict, variant, steps) in enumerate(_SOLVER_RUNS):
        lo = 1 if kind == "orthant" else 2
        n = lo + (c * len(_SOLVER_RUNS) + j) % (6 - lo)
        if kind == "polyhedron":
            Q, q, dom, xbar = _polyhedron_instance(rng, n)
            start = xbar + 0.5 * rng.standard_normal(n)
        else:
            Q, q, dom, xbar = _stationary_instance(rng, kind, n,
                                                   degenerate=not strict)
            start = _signs(rng, n) * np.sqrt(xbar + rng.uniform(0.05, 0.5, n))
        specs.append({"problem": f"{kind}{n}-{variant}", "Q": Q, "q": q,
                      "r": float(rng.standard_normal()), "dom": dom,
                      "xbar": xbar, "strict": strict, "call": "run_first_order",
                      "variant": variant, "start": start, "steps": steps})
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


# ---------------------------------------------------------------------------
# kernels-scale
# ---------------------------------------------------------------------------


def _h_polyhedron(rng, n):
    """Box rows plus n random rows (3n rows), feasible at interior z0."""
    lo = rng.uniform(-3.0, -1.0, n)
    hi = rng.uniform(1.0, 3.0, n)
    z0 = rng.uniform(-0.5, 0.5, n)
    A = rng.standard_normal((n, n))
    eye = np.eye(n)
    return (np.vstack([eye, -eye, A]),
            np.concatenate([hi, -lo, A @ z0 + rng.uniform(0.05, 1.0, n)]), z0)


def _generators(rng, n, n_pts, n_rays, barycentric):
    """Generator set and a query point in its relative interior by
    construction: every coefficient is strictly positive."""
    points = rng.standard_normal((n_pts, n))
    rays = rng.standard_normal((n_rays, n))
    if barycentric:
        lam = np.full(n_pts, 1.0 / n_pts)
        mu = np.full(n_rays, 1.0 / n_pts)
    else:
        lam = rng.uniform(0.2, 1.0, n_pts)
        lam /= lam.sum()
        mu = rng.uniform(0.2, 1.0, n_rays)
    return points, rays, lam @ points + mu @ rays


# Tasks per size in one cycle of 61.  Generator sets have fewer
# generators than n at every size and more than n at n <= 20 (the
# active-set QP on 1.5n generators at n = 80 takes seconds).  The counts
# place both latency quantiles inside dense bands of similar tasks: the
# median among the 5-15 ms calls (n = 10 cold projections and large
# generator sets, n = 20 LPs), the 90th percentile among the 50-100 ms
# calls (n = 40 LPs and warm projections, n = 20 cold projections,
# n = 80 generator sets); the three calls above 300 ms sit beyond it.
_KERNEL_CYCLE = {
    10: {"lp": 4, "proj-cold": 6, "proj-warm": 4, "mnw-few": 4, "mnw-many": 6,
         "ri-few": 4, "ri-many": 3},
    20: {"lp": 4, "proj-cold": 2, "proj-warm": 2, "mnw-few": 2, "mnw-many": 2,
         "ri-few": 2, "ri-many": 3},
    40: {"lp": 2, "proj-cold": 1, "proj-warm": 2, "mnw-few": 2, "ri-few": 2},
    80: {"lp": 1, "proj-warm": 1, "mnw-few": 1, "ri-few": 1},
}
# The seed's task pool; one pass takes about 9 s on the host of NOTES.md.
KERNEL_CYCLES = 4


def kernel_plan(seed):
    """KERNEL_CYCLES cycles of the kernel mix, each a list of specs."""
    rng = np.random.default_rng([seed, 3])
    cycles = []
    for _ in range(KERNEL_CYCLES):
        cycle = []
        for n, counts in _KERNEL_CYCLE.items():
            for kind, count in counts.items():
                for j in range(count):
                    spec = {"kind": kind, "n": n}
                    if kind == "lp" or kind.startswith("proj"):
                        A, b, z0 = _h_polyhedron(rng, n)
                        spec.update(A=A, b=b, z0=z0)
                        if kind == "lp":
                            spec["c"] = rng.standard_normal(n)
                        else:
                            spec["x"] = 4.0 * rng.standard_normal(n)
                    else:
                        many = kind.endswith("many")
                        n_pts = n // 2 + 1 if many else 3
                        n_rays = n if many else n // 2
                        pts, rays, z = _generators(
                            rng, n, n_pts, n_rays,
                            barycentric=kind.startswith("ri") and j % 2 == 0)
                        spec.update(points=pts, rays=rays, z=z)
                        if kind.startswith("mnw"):
                            spec["shift"] = 3.0 * rng.standard_normal(n)
                            spec["weights"] = rng.uniform(0.5, 1.5, n)
                    cycle.append(spec)
        order = rng.permutation(len(cycle))
        cycles.append([cycle[i] for i in order])
    return cycles
