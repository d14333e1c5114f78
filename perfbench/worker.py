"""One workload in one fresh process: set up, run the closed loop, check.

Started by run.py with BLAS pinned to one thread and ``src`` first on
the import path.  Modes:

* ``setup``: measure set-up only and exit;
* ``run``: closed loop over the seed's task pool, pass after pass, for
  ``--seconds`` and at least ``MIN_PASSES`` whole passes, ending on a
  cycle boundary, with the host-speed probe timed between tasks;
* ``trace``: the first ``--cycles`` cycles of the same schedule, each
  run twice in turn, untraced and with the tracer installed, so both
  see the same host conditions; then one traced reference certificate.

Every mode times the host-speed probe after set-up too.  Writes one
JSON object to ``--out``.  Only the standard library is imported before
the set-up clock starts.
"""

import argparse
import itertools
import json
import os
import re
import resource
import sys
import time

# whole passes over the seed's task pool in a run, at the least, so
# every task is timed at two moments of the run at least
MIN_PASSES = 2

# The host-speed probe runs about this often between tasks.  Every
# latency and set-up time is reported at the host speed at which the
# probe takes HOST_PROBE_NOMINAL_S: it is scaled by HOST_PROBE_NOMINAL_S
# / (probe time measured beside it), so the speed of the shared host,
# which drifts by a third within minutes, drops out of the figures.
HOST_PROBE_EVERY_S = 0.25
HOST_PROBE_NOMINAL_S = 2.0e-3
SETUP_HOST_PROBES = 15          # after set-up; their median scales it

_NUMBER = re.compile(r"(?<![\w.-])-?\d+(\.\d+)?(e[-+]?\d+)?")


def _parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="span CSV path (trace mode)")
    return ap.parse_args(argv)


def _host_probe():
    """Time a fixed piece of work that does not touch the program: a
    pure-Python loop, small numpy array arithmetic and small LAPACK
    solves, the mix a task of this package is made of."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    a = np.arange(8.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0) - 1.0
    m = np.eye(6) * 4.0 + 1.0
    for _ in range(80):
        np.linalg.solve(m, a[:6])
    return time.perf_counter() - t


def _set_up(args):
    """Returns (sq, workload, check, setup_s, lapack_first_call_s)."""
    t0 = time.perf_counter()
    import numpy as np
    import sqreparam as sq
    t_lapack = time.perf_counter()
    np.linalg.lstsq(np.eye(3), np.ones(3), rcond=None)
    t1 = time.perf_counter()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(sq.__file__).startswith(src + os.sep):
        raise SystemExit(f"sqreparam imported from {sq.__file__}, not {src}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    generate, cls = workloads.WORKLOADS[args.workload]
    specs = generate(args.seed, args.workdir)
    t2 = time.perf_counter()

    workload = cls(sq, specs)
    t3 = time.perf_counter()
    return sq, workload, cls.check, (t1 - t0) + (t3 - t2), t1 - t_lapack


def _loop(workload, cycles, seconds=None, min_cycles=0, tracer=None,
          probes=None):
    """Closed loop, one client: the next task starts when the last ends.

    Runs the cycles with the given indices, stopping at the first cycle
    boundary after ``seconds`` once ``min_cycles`` cycles are done.
    Returns the (task, latency, error, probe index) records and the wall
    time.  With a ``probes`` list, the host-speed probe runs about every
    HOST_PROBE_EVERY_S between tasks and once at the end; a record's
    probe index is that of the last probe before it, so the task ran
    between probes i and i + 1."""
    clock = time.perf_counter
    done = []
    start = clock()
    if probes is not None:
        probes.append(_host_probe())
        last_probe = clock()
    for count, i in enumerate(cycles, 1):
        for task in workload.cycle(i):
            if tracer is not None:
                tracer.task_id += 1
            t = clock()
            try:
                task.output = task.fn()
                error = None
            except Exception as exc:  # the program failed this task; keep going
                error = f"{type(exc).__name__}: {exc}"
            end = clock()
            done.append((task, end - t, error,
                         None if probes is None else len(probes) - 1))
            if probes is not None and end - last_probe >= HOST_PROBE_EVERY_S:
                probes.append(_host_probe())
                last_probe = clock()
        if (seconds is not None and count >= min_cycles
                and clock() - start >= seconds):
            break
    if probes is not None:
        probes.append(_host_probe())
    return done, clock() - start


def _check(done, check):
    """Check every record.  Returns the failed and wrong task keys (a
    task repeated over passes counts once) and the failure causes."""
    failed = set()
    wrong = set()
    causes = {}
    for task, _, error, _ in done:
        key = task.key()
        reason = error
        if reason is None:
            verdict = check(task)
            if verdict is not None:
                reason, is_wrong = verdict
                if is_wrong:
                    wrong.add(key)
                    reason = "wrong output: " + reason
        if reason is not None and key not in failed:
            failed.add(key)
            # numbers vary from instance to instance; the cause does not
            cause = f"{task.kind}: " + _NUMBER.sub("#", reason)[:100]
            causes[cause] = causes.get(cause, 0) + 1
    return failed, wrong, causes


def main(argv=None):
    args = _parse_args(argv)
    sq, workload, check, setup_s, lapack_s = _set_up(args)
    probe_s = sorted(_host_probe() for _ in range(SETUP_HOST_PROBES))
    result = {"setup_s": setup_s, "lapack_first_call_s": lapack_s,
              "setup_scaled_s": setup_s * HOST_PROBE_NOMINAL_S
              / probe_s[len(probe_s) // 2]}
    if args.mode == "setup":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        done, plain, walls = [], [], [0.0, 0.0]    # untraced, traced
        for i in range(args.cycles):
            # alternate which pass goes first, so neither always runs warm
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                part, wall = _loop(workload, [i],
                                   tracer=tracer if traced else None)
                if traced:
                    tracer.uninstall()
                walls[traced] += wall
                (done if traced else plain).extend(part)
        wall = walls[True]
    else:
        probes = []
        done, wall = _loop(workload, itertools.count(), seconds=args.seconds,
                           min_cycles=MIN_PASSES * workload.n_cycles,
                           probes=probes)
        plain = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, wrong, causes = _check(done, check)
    wrong |= _check(plain, check)[1]
    result.update(attempted=len({task.key() for task, *_ in done}),
                  failed=len(failed), wrong=len(wrong), causes=causes,
                  wall_s=wall, executed=len(done), peak_rss_mb=peak_rss_mb)
    if tracer is None:
        # every repeat of a task, raw and at the nominal host speed
        raw, scaled = {}, {}
        for task, dt, _, k in done:
            speed = HOST_PROBE_NOMINAL_S / (0.5 * (probes[k] + probes[k + 1]))
            raw.setdefault(task.key(), []).append(dt)
            scaled.setdefault(task.key(), []).append(dt * speed)
        result["latencies_s"] = list(raw.values())
        result["scaled_latencies_s"] = [scaled[key] for key in raw]
        result["host_probe_s"] = probes
    else:
        result["layers"] = tracer.summary(len(done))
        result["layers"]["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
        if args.spans:
            tracer.write(args.spans)
        result["reference_counts"] = _reference_counts(sq)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _reference_counts(sq):
    """Boundary calls of ``certify problems/orthant2.json --y 0,0``."""
    import contextlib
    import io

    import tracer as tracing
    from sqreparam import cli

    ref = tracing.Tracer()
    ref.install()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(["certify", "problems/orthant2.json", "--y", "0,0"])
    finally:
        ref.uninstall()
    counts = ref.counts()
    labels = tracing.LABELS
    lp = labels.index("polyhedra.lp_solve")
    feasible = labels.index("polyhedra.feasible_point")
    parse = labels.index("cli.parse_problem_file")
    counts["lp_solve_under_parse"] = sum(
        1 for i, k in enumerate(ref.names)
        if k == lp and _has_ancestor(ref, i, feasible)
        and _has_ancestor(ref, i, parse))
    return counts


def _has_ancestor(tr, i, label_index):
    p = tr.parents[i]
    while p >= 0:
        if tr.names[p] == label_index:
            return True
        p = tr.parents[p]
    return False


if __name__ == "__main__":
    sys.exit(main())
