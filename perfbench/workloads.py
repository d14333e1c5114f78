"""Tasks and output checks for the three workloads.

A task is one user-level request: one in-process CLI invocation, one
exponent fit, probe or solver run, or one kernel call.  Each workload
class takes the generated specs and builds its problem objects with the
package's public constructors (the workload's share of set-up time).
``cycle(i)`` yields the tasks of cycle i; every cycle has the same mix
of task kinds.  The ``n_cycles`` cycles of a seed are its task pool, and
cycle i replays cycle i mod ``n_cycles``, so a run passes over the same
tasks several times.

``check`` runs after the timed loop and returns None for a correct
output, or ``(reason, wrong)``: the task failed, and ``wrong`` says
whether it returned a wrong answer, as opposed to a failure the program
reported itself or a verdict that moved when f + g was rescaled (the
known scale defect, ROADMAP item 2).

Tasks reach the package through module attributes at call time
(``sq.lp_solve(...)``, never a captured function object), so the
outside-in tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
import sys

import numpy as np

import gen


class Task:
    __slots__ = ("kind", "spec", "fn", "output")

    def __init__(self, kind, spec, fn):
        self.kind = kind
        self.spec = spec
        self.fn = fn
        self.output = None

    def key(self):
        """The same task in every pass over the pool."""
        return self.kind, id(self.spec)


def _replay(cycles, i):
    """Fresh tasks for cycle i of a list of (kind, spec, fn) cycles."""
    for kind, spec, fn in cycles[i % len(cycles)]:
        yield Task(kind, spec, fn)


def _parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# certify-stream
# ---------------------------------------------------------------------------


class CertifyStream:
    """In-process ``certify`` calls, plus ``strict-comp`` on every point
    the certificate calls phi-stationary."""

    def __init__(self, sq, specs):
        from sqreparam import cli

        self.cli = cli
        self.specs = specs
        self.n_cycles = 1
        # Parse every file once: the CLI constructors (and the domain
        # feasibility LP) are the workload's set-up.
        for spec in specs:
            cli.parse_problem_file(spec["file"])

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:        # argparse usage errors
                code = exc.code
        # Interned, so repeated cycles keep one copy of each output and
        # peak RSS does not grow with the number of tasks a run holds.
        return code, sys.intern(out.getvalue()), sys.intern(err.getvalue())

    def cycle(self, _i):
        for spec in self.specs:
            argv = ["certify", spec["file"], "--y=" + spec["y"]]
            task = Task("certify", spec, lambda a=argv: self._invoke(a))
            yield task
            code, stdout, _ = task.output or (None, "", "")
            report = _parse_kv(stdout)
            if code == 0 and report.get("stationary_for_phi") == "True":
                y = np.array([float(v) for v in spec["y"].split(",")])
                x = ",".join(format(v, ".17g") for v in y * y)
                argv = ["strict-comp", spec["file"], "--x=" + x]
                yield Task("strict-comp", spec, lambda a=argv: self._invoke(a))

    @staticmethod
    def check(task):
        code, stdout, stderr = task.output
        if code != 0:
            return (f"exit {code}: "
                    + (stderr.strip().splitlines() or ["no message"])[0]), False
        reason = CertifyStream._verdict_mismatch(task.kind, _parse_kv(stdout),
                                                 task.spec["truth"])
        if reason is None:
            return None
        if task.spec["scale"] != 1.0:
            # the designed truth is that of the unscaled instance
            way = "up" if task.spec["scale"] > 1.0 else "down"
            return f"scaling f + g {way} moved a verdict: {reason}", False
        return reason, True

    @staticmethod
    def _verdict_mismatch(kind, report, truth):
        if kind == "strict-comp":
            got = report.get("strict_complementarity")
            if got not in ("True", "False"):
                return "strict-comp printed no verdict"
            if "strict" in truth and got != str(truth["strict"]):
                return f"strict_complementarity {got}, designed {truth['strict']}"
            return None
        if report.get("consistent") != "True":
            return "certificate not marked consistent"
        for key, field in (("Phi", "stationary_for_Phi"),
                           ("phi", "stationary_for_phi")):
            if key in truth and report.get(field) != str(truth[key]):
                return f"{field} {report.get(field)}, designed {truth[key]}"
        if truth.get("negative_direction") and "negative_direction" not in report:
            return "spurious point without a negative direction"
        return None


# ---------------------------------------------------------------------------
# kl-lab
# ---------------------------------------------------------------------------

# The paper's experiment plan (64 radii x 32 directions), reduced so a
# run holds hundreds of tasks: 32 radii x 4 directions, default gap bins.
# With 4 directions, all of them point out of the orthant at quartic1's
# boundary minimizer for about one fit seed in 16, which raises
# InsufficientSamples; that failure is counted, not avoided.
_FIT_PLAN = {"n_radii": 32, "n_dirs": 4}
_BETA = 0.5

# alpha_hat windows of acceptance criterion 4; the generated instances
# are strictly complementary, so their lifted exponent is nnls1's 0.5
_ALPHA_WINDOWS = {"quartic1": (0.70, 0.80), "nnls1": (0.45, 0.55)}


def _composite(sq, Q, q, r, dom):
    n = len(q)
    domain = sq.Polyhedron(n, **dom) if dom else None
    g = (sq.PolyhedralFunction(n, domain=domain) if domain is not None
         else sq.PolyhedralFunction.orthant_indicator(n))
    return sq.CompositeProblem(sq.SmoothQuadratic(Q, q, r), g)


class KLLab:
    """Exponent fits, Lemma 6.1 probes, strict-complementarity tests and
    solver runs with rate fits, cycling through the seeded plan."""

    def __init__(self, sq, cycles):
        self.sq = sq
        self.cycles = []
        for specs in cycles:
            tasks = []
            for spec in specs:
                r = spec.get("r", 0.0)
                p = _composite(sq, spec["Q"], spec["q"], r, spec["dom"])
                xbar = spec["xbar"]
                f_star = float(0.5 * xbar @ spec["Q"] @ xbar
                               + spec["q"] @ xbar + r)
                tasks.append((spec["call"], spec, self._fn(spec, p, f_star)))
            self.cycles.append(tasks)
        self.n_cycles = len(self.cycles)

    def _fn(self, spec, p, f_star):
        sq = self.sq
        xbar = spec["xbar"]
        call = spec["call"]
        if call in ("estimate_exponent", "lemma61_probe"):
            config = sq.ScatterConfig(seed=spec["seed"], **_FIT_PLAN)
            if call == "lemma61_probe":
                return lambda: sq.lemma61_probe(p, xbar, _BETA, config)
            inputs = (sq.ExponentInputs(0.5, True) if spec["strict"]
                      else sq.ExponentInputs(0.5, False, 1.0))
            ybar = np.sqrt(xbar)
            return lambda: sq.estimate_exponent(p, ybar, config, inputs)
        if call == "strict_complementarity":
            return lambda: sq.strict_complementarity(p, xbar)
        if call == "run_first_order":
            def solve():
                trace = sq.run_first_order(p, spec["variant"], spec["start"],
                                           steps=spec["steps"], f_star=f_star)
                return sq.fit_rate(trace)
            return solve
        raise ValueError(call)

    def cycle(self, i):
        return _replay(self.cycles, i)

    @staticmethod
    def check(task):
        """Wrong answers are verdicts decided by construction (strict
        complementarity).  An exponent or rate estimate outside its
        window is a failure of the estimator, counted with its cause:
        the fits are statistical, and fit_rate is known to misread some
        generic traces."""
        spec, out = task.spec, task.output
        if task.kind == "strict_complementarity":
            if out is not spec["strict"]:
                return (f"strict_complementarity {out}, designed "
                        f"{spec['strict']}"), True
            return None
        if task.kind == "estimate_exponent":
            lo, hi = _ALPHA_WINDOWS.get(spec["problem"], _ALPHA_WINDOWS["nnls1"])
            if not (lo <= out.alpha_hat <= hi):
                return (f"{_family(spec)} alpha_hat outside [{lo}, {hi}]"), False
            return None
        if task.kind == "lemma61_probe":
            # crash-only: the probe returns a minimum of nonnegative
            # ratios, so only an exception can fail it
            return None
        if spec["strict"]:
            if out.kind != "linear":
                return f"{_family(spec)} rate read {out.kind}, designed linear", False
        elif out.kind != "sublinear" or not (1.7 <= out.parameter <= 2.3):
            return (f"{_family(spec)} rate read {out.kind}, designed sublinear "
                    "with power in [1.7, 2.3]"), False
        return None


def _family(spec):
    """Problem name without its size, so failure causes group by family."""
    return spec["problem"].translate(str.maketrans("", "", "0123456789"))


# ---------------------------------------------------------------------------
# kernels-scale
# ---------------------------------------------------------------------------


class KernelsScale:
    """Direct kernel calls on general H-polyhedra and generator sets."""

    def __init__(self, sq, cycles):
        self.sq = sq
        self.cycles = []
        for specs in cycles:
            tasks = []
            for spec in specs:
                n = spec["n"]
                if "A" in spec:
                    obj = sq.Polyhedron(n, spec["A"], spec["b"])
                else:
                    obj = sq.GeneratorSet(n, spec["points"], spec["rays"])
                tasks.append((spec["kind"], spec, self._fn(spec, obj)))
            self.cycles.append(tasks)
        self.n_cycles = len(self.cycles)

    def _fn(self, spec, obj):
        sq = self.sq
        kind = spec["kind"]
        if kind == "lp":
            return lambda: sq.lp_solve(spec["c"], A_ineq=obj.A_ineq,
                                       b_ineq=obj.b_ineq)
        if kind == "proj-cold":
            return lambda: sq.project_onto_polyhedron(obj, spec["x"])
        if kind == "proj-warm":
            return lambda: sq.project_onto_polyhedron(obj, spec["x"],
                                                      start=spec["z0"])
        if kind.startswith("mnw"):
            return lambda: sq.min_norm_weighted(obj, spec["shift"],
                                                spec["weights"])
        return lambda: sq.vrep_ri_membership(obj, spec["z"])

    def cycle(self, i):
        return _replay(self.cycles, i)

    @staticmethod
    def check(task):
        reason = KernelsScale._reason(task)
        return None if reason is None else (reason, True)

    @staticmethod
    def _reason(task):
        spec, out = task.spec, task.output
        kind = spec["kind"]
        if kind == "lp":
            return _check_lp(spec, out)
        if kind.startswith("proj"):
            return _check_projection(spec, out)
        if kind.startswith("mnw"):
            return _check_min_norm(spec, out)
        if out is not True:
            return "ri query built inside the relative interior answered False"
        return None


def _check_lp(spec, out):
    from scipy.optimize import linprog

    if out.status.name != "OPTIMAL":
        return f"bounded feasible LP reported {out.status.name}"
    ref = linprog(-spec["c"], A_ub=spec["A"], b_ub=spec["b"],
                  bounds=(None, None), method="highs")
    if ref.status != 0:
        return f"reference LP failed: {ref.message}"
    best = -float(ref.fun)
    if abs(out.value - best) > 1e-7 * (1.0 + abs(best)):
        return f"LP value {out.value!r}, reference {best!r}"
    viol = float(np.max(spec["A"] @ out.witness - spec["b"]))
    if viol > 1e-7 * (1.0 + float(np.max(np.abs(spec["b"])))):
        return f"LP witness infeasible by {viol:.3e}"
    return None


def _check_projection(spec, z):
    """KKT test: z feasible and x - z in the normal cone of the rows
    active at z."""
    from scipy.optimize import nnls

    A, b, x = spec["A"], spec["b"], spec["x"]
    scale = 1.0 + float(np.max(np.abs(b)))
    slack = b - A @ z
    if float(-slack.min()) > 1e-7 * scale:
        return f"projection infeasible by {-slack.min():.3e}"
    residual = x - z
    active = slack <= 1e-7 * scale
    if active.any():
        _, rnorm = nnls(A[active].T, residual)
    else:
        rnorm = float(np.linalg.norm(residual))
    if rnorm > 1e-6 * (1.0 + float(np.linalg.norm(residual))):
        return f"projection fails the KKT test by {rnorm:.3e}"
    return None


def _check_min_norm(spec, out):
    """z in S (nonnegative least squares on the generator coefficients)
    and first-order optimality: the gradient of the weighted norm at z
    has no descent direction into S."""
    from scipy.optimize import nnls

    value, z = out
    pts, rays = spec["points"], spec["rays"]
    w2 = spec["weights"] ** 2
    if abs(value - float(np.linalg.norm(spec["weights"] * (spec["shift"] + z)))) \
            > 1e-9 * (1.0 + value):
        return "reported value does not match the minimizer"
    G = np.vstack([np.hstack([pts.T, rays.T]),
                   np.concatenate([np.ones(len(pts)), np.zeros(len(rays))])])
    _, rnorm = nnls(G, np.concatenate([z, [1.0]]), maxiter=50 * G.shape[1])
    scale = 1.0 + float(np.linalg.norm(z))
    if rnorm > 1e-7 * scale:
        return f"minimizer escapes the generator set by {rnorm:.3e}"
    grad = w2 * (spec["shift"] + z)
    tol = 1e-7 * (1.0 + float(np.linalg.norm(grad))) * scale
    if rays.size and float(np.min(rays @ grad)) < -tol:
        return "a ray is a descent direction at the minimizer"
    if float(np.min(pts @ grad)) < float(grad @ z) - tol:
        return "a generator point improves on the minimizer"
    return None


WORKLOADS = {
    "certify-stream": (lambda seed, workdir: gen.certify_pool(seed, workdir),
                       CertifyStream),
    "kl-lab": (lambda seed, workdir: gen.kl_plan(seed), KLLab),
    "kernels-scale": (lambda seed, workdir: gen.kernel_plan(seed),
                      KernelsScale),
}
