"""Print SHA-256 digests of every task output of a perfbench workload and seed.

    python tools/task_digests.py WORKLOAD SEED [SEED ...] [--repo DIR] [--work]

Imports `sqreparam` from DIR/src and perfbench's `gen` and `workloads`
from DIR/perfbench (default DIR: the checkout that holds this file),
builds the seed's task pool as a perfbench worker does, and runs every
task of it once, in order, in one process with BLAS pinned to one
thread.  A task that raises contributes its exception's type and
message.  Each output is hashed in a canonical form: arrays by dtype,
shape and bytes, floats by `repr` (exact), dataclasses field by field,
enums by name, and strings with the pool's temporary directory written
as `<pool>` and DIR as `<repo>`, so two checkouts that compute the same
outputs print the same digests.  Prints one line per seed, over all
its tasks, then one line per task kind, in sorted order, over that
kind's tasks alone, so a digest that moves names the kinds that moved:

    WORKLOAD SEED TASKS ERRORS SHA256
    WORKLOAD SEED KIND TASKS ERRORS SHA256

With --work each line also counts the LP, projection and parsing work
of its tasks, a deterministic measure that wall time is not: the
`lp_solve` calls (every module's binding of `polyhedra.lp_solve` is
wrapped, as `tools/cli_records.py` wraps its runs), the simplex pivots of
the outcomes they return (a call that raises adds a call and no pivots),
the steps of the dual active-set method, one `polyhedra._orthogonal_part`
call each, that projections and weighted min-norms take, and the
`argparse.ArgumentParser` instances built, the command line's parsers
and subparsers:

    WORKLOAD SEED [KIND] TASKS ERRORS SHA256 lp_calls=CALLS pivots=PIVOTS dual_steps=STEPS parsers=PARSERS

Problem files go to a temporary directory, removed at exit; nothing is
written under DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning)


def _canonical(obj, norm):
    """A repr-able form of obj in which equal outputs look equal."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return _canonical(obj.item(), norm)
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _canonical(getattr(obj, f.name), norm)
            for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v, norm) for v in obj)
    if isinstance(obj, str):
        return norm(obj)
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int)):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _count_work(work: list) -> None:
    """Route every sqreparam module's binding of polyhedra.lp_solve
    through a wrapper that adds each call to work[0] and the pivots of
    the outcome it returns to work[1], and polyhedra._orthogonal_part
    through one that adds each call, a step of the dual active-set
    method, to work[2], and count each argparse.ArgumentParser built in
    work[3].  The modules loaded so far are rebound here; one that loads
    later (the package loads each module on first use) imports the
    wrapper from polyhedra."""
    from sqreparam import polyhedra
    parser_init = argparse.ArgumentParser.__init__

    def built(self, *args, **kwargs):
        work[3] += 1
        parser_init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = built
    lp_solve = polyhedra.lp_solve
    orthogonal_part = polyhedra._orthogonal_part

    def step(*args):
        work[2] += 1
        return orthogonal_part(*args)

    polyhedra._orthogonal_part = step

    def counted(*args, **kwargs):
        work[0] += 1
        out = lp_solve(*args, **kwargs)
        work[1] += out.pivots
        return out

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "sqreparam"
                and getattr(module, "lp_solve", None) is lp_solve):
            module.lp_solve = counted


def digest(repo: str, workload: str, seed: int, work: list) -> dict:
    """{kind: [tasks, errors, hash, lp calls, pivots, dual steps,
    parsers]} of one pass over the seed's task pool, with the kind None
    for all tasks together.  The counts are what each task adds to work,
    the [calls, pivots, steps, parsers] list that _count_work feeds (they
    stay 0 when nothing feeds it)."""
    import sqreparam as sq
    import workloads

    generate, cls = workloads.WORKLOADS[workload]
    tallies = {}
    with tempfile.TemporaryDirectory() as pool_dir:
        def norm(text):
            return text.replace(pool_dir, "<pool>").replace(repo, "<repo>")

        pool = cls(sq, generate(seed, pool_dir))
        for i in range(pool.n_cycles):
            for task in pool.cycle(i):
                before = list(work)
                try:
                    task.output = task.fn()
                except Exception as exc:   # a failed task is an outcome
                    failed = 1
                    record = ("raised", type(exc).__name__, norm(str(exc)))
                else:
                    failed = 0
                    record = _canonical(task.output, norm)
                line = repr((task.kind, record)).encode()
                for key in (None, task.kind):
                    tally = tallies.setdefault(
                        key, [0, 0, hashlib.sha256(), 0, 0, 0, 0])
                    tally[0] += 1
                    tally[1] += failed
                    tally[2].update(line)
                    for i in range(4):
                        tally[3 + i] += work[i] - before[i]
    return tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--work", action="store_true",
                        help="also print each line's lp_solve calls, "
                             "simplex pivots, dual projection steps and "
                             "argument parsers built")
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    sys.dont_write_bytecode = True      # no __pycache__ under DIR
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    os.chdir(repo)      # the shipped problems are named relative to it
    work = [0, 0, 0, 0]
    if args.work:
        _count_work(work)
    for seed in args.seeds:
        tallies = digest(repo, args.workload, seed, work)
        for kind in [None] + sorted(tallies.keys() - {None}):
            tasks, errors, h, calls, pivots, steps, parsers = tallies[kind]
            head = f"{args.workload} {seed}" + ("" if kind is None
                                                else f" {kind}")
            line = f"{head} {tasks} {errors} {h.hexdigest()}"
            if args.work:
                line += (f" lp_calls={calls} pivots={pivots}"
                         f" dual_steps={steps} parsers={parsers}")
            print(line)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
