"""Print SHA-256 digests of every task output of a perfbench workload and seed.

    python tools/task_digests.py WORKLOAD SEED [SEED ...] [--repo DIR]

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


def digest(repo: str, workload: str, seed: int) -> dict:
    """{kind: [tasks, errors, hash]} of one pass over the seed's task
    pool, with the kind None for all tasks together."""
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
                    tally = tallies.setdefault(key, [0, 0, hashlib.sha256()])
                    tally[0] += 1
                    tally[1] += failed
                    tally[2].update(line)
    return tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    sys.dont_write_bytecode = True      # no __pycache__ under DIR
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    os.chdir(repo)      # the shipped problems are named relative to it
    for seed in args.seeds:
        tallies = digest(repo, args.workload, seed)
        tasks, errors, h = tallies.pop(None)
        print(f"{args.workload} {seed} {tasks} {errors} {h.hexdigest()}")
        for kind in sorted(tallies):
            tasks, errors, h = tallies[kind]
            print(f"{args.workload} {seed} {kind} {tasks} {errors} "
                  f"{h.hexdigest()}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
