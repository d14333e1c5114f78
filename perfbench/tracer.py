"""Outside-in tracer: spans at the package's public layer boundaries.

Modules import each other's functions by name, so patching
``polyhedra.lp_solve`` alone would miss the calls ``second_order`` makes
through its own binding.  ``install`` therefore rebinds every name that
refers to a boundary function in every loaded ``sqreparam`` namespace,
and replaces the ``SmoothQuadratic`` methods on the class.  A boundary
that no longer exists is skipped and reports zero.

Spans (name, start, end, parent, task id) stay in memory until
``write``.  Self time is a span's duration minus the time covered by its
direct children (calls are synchronous, so children never overlap).  An
exception counts once, at the innermost boundary span it leaves.
"""

from __future__ import annotations

import functools
import sys
import time

BOUNDARIES = {
    "cli": ("main", "parse_problem_file"),
    "polyhedra": ("lp_solve", "project_onto_polyhedron", "min_norm_weighted",
                  "vrep_membership", "vrep_ri_membership", "feasible_point"),
    "polyfunc": ("g_subdiff", "activity_pattern", "phi_value", "phi_residual",
                 "SmoothQuadratic.value", "SmoothQuadratic.grad"),
    "reparam": ("lift_eval", "lifted_residual", "classify_first_order"),
    "second_order": ("stationarity_multiplier", "d2_lifted_g",
                     "correspondence_check"),
    "kl_lab": ("strict_complementarity", "sample_scatter", "estimate_exponent",
               "lemma61_probe", "run_first_order", "fit_rate"),
}

LABELS = tuple(f"{mod}.{name}" for mod, names in BOUNDARIES.items()
               for name in names)

# metrics derived from span results, beyond calls / self time / failures
EXTRA_METRICS = (
    ("polyhedra.lp_solve.optimal_frac", "ratio", "higher"),
    ("kl_lab.sample_scatter.kept_frac", "ratio", "higher"),
    ("kl_lab.run_first_order.iters_per_task", "count", "lower"),
    ("kl_lab.run_first_order.f_evals_per_step", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    names = []
    for label in LABELS:
        names += [(f"{label}.calls_per_task", "count", "lower"),
                  (f"{label}.self_ms_per_task", "ms", "lower"),
                  (f"{label}.failed", "count", "lower")]
    return names + list(EXTRA_METRICS)


# the number a span keeps from its return value, by boundary
_OBSERVERS = {
    "polyhedra.lp_solve": lambda out: int(out.status.name == "OPTIMAL"),
    "kl_lab.sample_scatter": len,
    "kl_lab.run_first_order": lambda out: len(out.iterates),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.task_ids = []
        self.starts = []
        self.ends = []
        self.failed = []          # span ids an exception left first
        self.observed = {}        # span id -> number kept from the result
        self.task_id = -1
        self._stack = []
        self._last_exc = None
        self._restore = []

    def _wrap(self, index, label, orig):
        clock = time.perf_counter
        stack = self._stack
        names, parents, task_ids = self.names, self.parents, self.task_ids
        starts, ends = self.starts, self.ends
        observe = _OBSERVERS.get(label)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            task_ids.append(self.task_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.failed.append(sid)
                raise
            ends[sid] = clock()
            stack.pop()
            if observe is not None:
                self.observed[sid] = observe(result)
            return result

        return wrapper

    def install(self):
        """Rebind the boundary functions in every sqreparam namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sqreparam"
                                         or name.startswith("sqreparam."))]
        for index, label in enumerate(LABELS):
            mod_name, _, name = label.partition(".")
            home = sys.modules.get(f"sqreparam.{mod_name}")
            if home is None:
                continue
            cls_name, dot, meth = name.partition(".")
            if dot:
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    continue
                setattr(cls, meth, self._wrap(index, label, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(home, name, None)
            if orig is None:
                continue
            wrapper = self._wrap(index, label, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def summary(self, n_tasks):
        """Per-layer metrics over the spans of n_tasks tasks."""
        count = len(self.names)
        n_labels = len(LABELS)
        calls = [0] * n_labels
        self_s = [0.0] * n_labels
        fails = [0] * n_labels
        child = [0.0] * count
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        for i in range(count):
            p = self.parents[i]
            if p >= 0:
                child[p] += durations[i]
        for i in range(count):
            k = self.names[i]
            calls[k] += 1
            self_s[k] += durations[i] - child[i]
        for sid in self.failed:
            fails[self.names[sid]] += 1

        index = {label: i for i, label in enumerate(LABELS)}
        lp = index["polyhedra.lp_solve"]
        scatter = index["kl_lab.sample_scatter"]
        proj = index["polyhedra.project_onto_polyhedron"]
        rfo = index["kl_lab.run_first_order"]
        value = index["polyfunc.SmoothQuadratic.value"]
        optimal = kept = projections = iters = f_evals = 0
        in_rfo = [False] * count
        for i in range(count):
            k, p = self.names[i], self.parents[i]
            if p >= 0:
                in_rfo[i] = in_rfo[p] or self.names[p] == rfo
            obs = self.observed.get(i)
            if k == lp and obs:
                optimal += obs
            elif k == scatter and obs is not None:
                kept += obs
            elif k == rfo and obs is not None:
                iters += obs
            elif k == proj and p >= 0 and self.names[p] == scatter:
                projections += 1
            elif k == value and in_rfo[i]:
                f_evals += 1

        tasks = max(n_tasks, 1)
        metrics = {}
        for label, i in index.items():
            metrics[f"{label}.calls_per_task"] = calls[i] / tasks
            metrics[f"{label}.self_ms_per_task"] = 1e3 * self_s[i] / tasks
            metrics[f"{label}.failed"] = fails[i]
        metrics["polyhedra.lp_solve.optimal_frac"] = optimal / max(calls[lp], 1)
        metrics["kl_lab.sample_scatter.kept_frac"] = kept / max(projections, 1)
        metrics["kl_lab.run_first_order.iters_per_task"] = iters / tasks
        metrics["kl_lab.run_first_order.f_evals_per_step"] = f_evals / max(iters, 1)
        return metrics

    def counts(self):
        """Calls per boundary label over every recorded span."""
        out = dict.fromkeys(LABELS, 0)
        for k in self.names:
            out[LABELS[k]] += 1
        return out

    def write(self, path):
        """Write the spans as CSV: name, start, end (seconds), parent, task."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,task\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{LABELS[self.names[i]]},{self.starts[i]:.9f},"
                         f"{self.ends[i]:.9f},{self.parents[i]},"
                         f"{self.task_ids[i]}\n")
