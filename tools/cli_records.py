"""Record the command-line output of a source checkout, and diff two records.

    python tools/cli_records.py record OUT.json [--repo DIR]
    python tools/cli_records.py diff OLD.json NEW.json

`record` imports `sqreparam` from DIR/src (default: the checkout that
holds this file) and runs `sqreparam.cli.main` in one process on:

* `certify FILE --y Y` for every record of `gen.certify_pool` at seeds
  101-103 (shipped points included), and `strict-comp FILE --x Y*Y`
  for each of them;
* `kl-fit FILE --y Y` and `certify FILE --y Y` at Y = sqrt(xbar) on
  the box and simplex problems of `gen.kl_plan(101)` cycle 0 and on the
  first of its polyhedron problems, written to the pool's directory:
  their stationary points put coordinates at upper bounds and on simplex
  faces, which no shipped problem does, and the polyhedron's samples
  take the dual projection and the per-sample local models;
* `solve FILE --variant lifted --steps 2000 --y0 START` on the lifted
  solver runs of `gen.kl_plan(101)` cycle 0 whose domain is a simplex or
  whose orthant instance is degenerate, and `solve FILE --variant
  original --steps 150 --x0 START` on its projected-gradient runs, whose
  domain is a general polyhedron, so their steps take the dual
  projection; each with its xbar as `meta.known_minimizer`, so the gaps
  and the (sublinear on the degenerate orthant) rate fit are printed;
* a fixed list of `certify`, `kl-fit` and `solve` runs on `problems/`
  (the shipped points of the pool are perfbench's explicit list, which
  leaves out cone2);
* `selftest` at seeds 0 and 7;
* the error paths: `certify` on malformed problem files, an empty
  domain and the tolerance example, written to the pool's directory,
  invalid flag values, and `kl-fit` and `solve` with an `--out` that
  cannot be written;
* the argparse paths of `USAGE`: help, usage and the parser's own
  rejections, recorded with COLUMNS=80, since argparse wraps its text at
  the terminal's width.

Each run's stdout, stderr and exit code go into OUT, keyed by its
argument list; a run that raises records the exception's type and
message as its exit code.  The pool's temporary directory is written as
`<pool>` and DIR as `<repo>`, so records of two checkouts compare line
for line.
`diff` prints every run whose output or exit code differs, then a tally
of the changed runs by key (the text before ` = ` or `: ` of each
changed line, `exit` for an exit code), and exits 1 when any run
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from collections import Counter

POOL_SEEDS = (101, 102, 103)
SELFTEST_SEEDS = (0, 7)
KL_PLAN_SEED = 101

CERTIFY = (
    ("cone2", "--y=0,0"),
)

KL_FIT = (
    ("quartic1", "--y=0"),
    ("quartic1", "--y=0", "--alpha", "0.5", "--gamma", "1", "--seed", "3"),
    ("nnls1", "--y=1"),
    ("nnls1", "--y=1", "--alpha", "0.5", "--strict"),
    ("orthant2", "--y=0,0"),
    ("orthant2", "--y=1,0"),
    ("pieces2", "--y=0,0"),
    ("pieces2", "--y=0.70710678118654757,0.70710678118654757"),
    ("simplex2", "--y=1,0"),
)

SOLVE = (
    ("nnls1", "original", "--x0=3"),
    ("nnls1", "lifted", "--y0=2"),
    ("quartic1", "original", "--x0=0.5"),
    ("quartic1", "lifted", "--y0=0.5"),
    ("orthant2", "original", "--x0=3,2"),
    ("orthant2", "lifted", "--y0=1.5,0.7"),
    ("simplex2", "original", "--x0=0.2,0.8"),
    ("simplex2", "lifted", "--y0=0.6,0.8"),
    ("pieces2", "original", "--x0=1,1"),
)

# Problem files for the error paths, with the point `certify` gets: exit
# 2 when the file does not parse, 3 when it is not a valid problem.  The
# last is ROADMAP's tolerance example, which exited 5 while a
# sign-constrained multiplier LP decided second order; it now certifies,
# and keeps its key so that older records still compare line for line.
ERROR_FILES = (
    ("f-not-object", '{"n": 1, "f": [1]}', "0"),
    ("g-not-object", '{"n": 1, "g": 1}', "0"),
    ("domain-not-object", '{"n": 1, "g": {"domain": []}}', "0"),
    ("top-not-object", '[1]', "0"),
    ("n-missing", '{"f": {}}', "0"),
    ("n-boolean", '{"n": true}', "0"),
    ("n-zero", '{"n": 0}', "0"),
    ("q-length", '{"n": 2, "f": {"q": [1]}}', "0,0"),
    ("pieces-not-list", '{"n": 1, "g": {"pieces": {}}}', "0"),
    ("piece-not-object", '{"n": 1, "g": {"pieces": [1]}}', "0"),
    ("piece-without-a", '{"n": 1, "g": {"pieces": [{"b": 0}]}}', "0"),
    ("a-length", '{"n": 1, "g": {"pieces": [{"a": [1, 2]}]}}', "0"),
    ("meta-not-object", '{"n": 1, "meta": []}', "0"),
    ("ragged-rows", '{"n": 2, "f": {"Q": [[1, 0], [0]]}}', "0,0"),
    ("nan-in-Q", '{"n": 1, "f": {"Q": [[NaN]]}}', "0"),
    ("y-not-numeric", '{"n": 2}', "a,b"),
    ("empty-domain",
     '{"n": 1, "g": {"domain": {"A_ineq": [[1]], "b_ineq": [-1]}}}', "0"),
    ("inconsistent",
     '{"n": 2, "f": {"Q": [[1, 0], [0, 1]], "q": [1e6, -1e-8]}, "g": {}}',
     "0,0"),
)

# Invalid flag values: (subcommand, shipped problem or None, flags...)
BAD_FLAGS = (
    ("selftest", None, "--seed", "-5"),
    ("kl-fit", "quartic1", "--y", "0", "--seed", "-1"),
    ("kl-fit", "quartic1", "--y", "0", "--dmax", "inf"),
    ("certify", "orthant2", "--y", "1,0", "--tol", "-1"),
    ("certify", "orthant2", "--y", "1,0", "--tol", "nan"),
    ("certify", "orthant2", "--y", "1,0", "--tol-support", "inf"),
    ("strict-comp", "nnls1", "--x", "1", "--tol", "nan"),
    ("kl-fit", "quartic1", "--y", "0", "--gamma", "1"),
    ("kl-fit", "quartic1", "--y", "0", "--strict"),
    ("kl-fit", "quartic1", "--y", "0", "--alpha", "2", "--strict"),
    ("kl-fit", "quartic1", "--y", "0", "--alpha", "0.5"),
    ("kl-fit", "quartic1", "--y", "0", "--alpha", "0.5", "--gamma", "0"),
    ("certify", "orthant2", "--y", "nan,0"),
    ("certify", "orthant2", "--y=-inf,0"),
    ("strict-comp", "nnls1", "--x", "inf"),
    ("kl-fit", "quartic1", "--y", "nan"),
    ("solve", "quartic1", "--variant", "lifted", "--y0", "nan"),
    ("solve", "nnls1", "--variant", "original", "--x0", "inf"),
    ("solve", "quartic1", "--variant", "lifted", "--y0", "0.5", "--steps",
     "0"),
    ("solve", "nnls1", "--variant", "original", "--x0", "3", "--steps", "-3"),
)

# The argparse paths: help, usage and the parser's own rejections, each
# an argument list in which a problems/ path names a shipped file.  A
# call builds only its subcommand's parser, and these runs show that its
# usage and messages read as the full tree's
USAGE = (
    (),
    ("-h",),
    ("--help",),
    ("frobnicate",),
    ("certify", "--help"),
    ("strict-comp", "--help"),
    ("kl-fit", "--help"),
    ("solve", "--help"),
    ("selftest", "--help"),
    ("certify", "--y", "0,0"),
    ("certify", "problems/orthant2.json"),
    ("certify", "problems/orthant2.json", "--y", "0,0", "extra"),
    ("solve", "problems/quartic1.json", "--variant", "mid"),
    ("certify", "problems/orthant2.json", "--y", "0,0", "--tol", "abc"),
    ("selftest", "--seed", "x"),
)

# Runs given an --out in a missing directory, and one that is a directory
UNWRITABLE_OUT = (
    ("kl-fit", "quartic1", "--y", "0"),
    ("solve", "quartic1", "--variant", "lifted", "--y0", "0.5", "--steps",
     "10"),
)


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse rejections
            code = exc.code
        except Exception as exc:           # an uncaught failure is an outcome
            code = f"{type(exc).__name__}: {exc}"
    return {"stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code}


def _runs(repo, pool_dir):
    sys.path.insert(0, os.path.join(repo, "perfbench"))
    import gen

    os.makedirs(os.path.join(pool_dir, "kl"))
    for name, d, xbar in _kl_plan_problems(gen):
        path = os.path.join(pool_dir, "kl", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        y = "--y=" + gen._vec_arg(xbar ** 0.5)
        yield ["kl-fit", path, y]
        yield ["certify", path, y]
    for name, d, variant, steps, start in _kl_plan_solver_runs(gen):
        path = os.path.join(pool_dir, "kl", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        flag = "--y0=" if variant == "lifted" else "--x0="
        yield ["solve", path, "--variant", variant, "--steps", str(steps),
               flag + gen._vec_arg(start)]
    problems = os.path.join(repo, "problems")
    for seed in POOL_SEEDS:
        workdir = os.path.join(pool_dir, f"seed{seed}")
        for spec in gen.certify_pool(seed, workdir):
            path = os.path.join(repo, spec["file"])
            y = [float(v) for v in spec["y"].split(",")]
            yield ["certify", path, "--y=" + spec["y"]]
            yield ["strict-comp", path, "--x=" + gen._vec_arg(
                [v * v for v in y])]
    for name, *flags in CERTIFY:
        yield ["certify", os.path.join(problems, name + ".json"), *flags]
    for name, *flags in KL_FIT:
        yield ["kl-fit", os.path.join(problems, name + ".json"), *flags]
    for name, variant, start in SOLVE:
        yield ["solve", os.path.join(problems, name + ".json"),
               "--variant", variant, start]
    for seed in SELFTEST_SEEDS:
        yield ["selftest", "--seed", str(seed)]
    os.makedirs(os.path.join(pool_dir, "errors"))
    for name, text, y in ERROR_FILES:
        path = os.path.join(pool_dir, "errors", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield ["certify", path, "--y=" + y]
    for cmd, name, *flags in BAD_FLAGS:
        files = [] if name is None else [os.path.join(problems, name + ".json")]
        yield [cmd, *files, *flags]
    for cmd, name, *flags in UNWRITABLE_OUT:
        for out in (os.path.join(pool_dir, "missing", "x.csv"), pool_dir):
            yield [cmd, os.path.join(problems, name + ".json"), *flags,
                   "--out", out]
    for argv in USAGE:
        yield [os.path.join(repo, a) if a.startswith("problems/") else a
               for a in argv]


def _kl_plan_problems(gen):
    """(name, problem dict, xbar) for each distinct box and simplex
    problem of `gen.kl_plan(KL_PLAN_SEED)` cycle 0 and for the first of
    its polyhedron problems by name, in name order."""
    found, polyhedra = {}, {}
    for spec in gen.kl_plan(KL_PLAN_SEED)[0]:
        name = spec["problem"]
        if name.startswith(("box", "simplex")) and "-" not in name:
            pool = found
        elif name.startswith("polyhedron"):
            name, pool = name.split("-")[0], polyhedra
        else:
            continue
        domain = {k: v.tolist() for k, v in spec["dom"].items()}
        d = {"n": len(spec["q"]),
             "f": {"Q": spec["Q"].tolist(), "q": spec["q"].tolist()},
             "g": {"domain": domain}}
        pool[name] = (name, d, spec["xbar"])
    found[min(polyhedra)] = polyhedra[min(polyhedra)]
    return [found[name] for name in sorted(found)]


def _kl_plan_solver_runs(gen):
    """(name, problem dict, variant, steps, start) for each solver run of
    `gen.kl_plan(KL_PLAN_SEED)` cycle 0 but the lifted runs on strictly
    complementary orthant instances, in name order."""
    runs = []
    for spec in gen.kl_plan(KL_PLAN_SEED)[0]:
        if spec["call"] != "run_first_order" \
                or (spec["problem"].startswith("orthant") and spec["strict"]):
            continue
        domain = {k: v.tolist() for k, v in spec["dom"].items()}
        d = {"n": len(spec["q"]),
             "f": {"Q": spec["Q"].tolist(), "q": spec["q"].tolist(),
                   "r": spec["r"]},
             "g": {"domain": domain},
             "meta": {"known_minimizer": spec["xbar"].tolist()}}
        runs.append((spec["problem"], d, spec["variant"], spec["steps"],
                     spec["start"]))
    return sorted(runs, key=lambda run: run[0])


def record(repo: str, out_path: str) -> int:
    repo = os.path.abspath(repo)
    os.environ["COLUMNS"] = "80"        # the width argparse wraps help at
    sys.dont_write_bytecode = True      # no __pycache__ under DIR
    sys.path.insert(0, os.path.join(repo, "src"))
    from sqreparam.cli import main

    records = {}
    with tempfile.TemporaryDirectory() as pool_dir:
        def norm(text):
            return text.replace(pool_dir, "<pool>").replace(repo, "<repo>")

        for argv in _runs(repo, pool_dir):
            result = _run(main, argv)
            key = norm(" ".join(argv))
            records[key] = {k: norm(v) if isinstance(v, str) else v
                            for k, v in result.items()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    print(f"{len(records)} runs recorded in {out_path}")
    return 0


def diff(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    changed = 0
    tally = Counter()
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        changed += 1
        print(f"### {key}")
        if a is None or b is None:
            print("only in " + (new_path if a is None else old_path))
            continue
        keys = set()
        if a["exit"] != b["exit"]:
            print(f"exit {a['exit']} -> {b['exit']}")
            keys.add("exit")
        for stream in ("stdout", "stderr"):
            lines = difflib.unified_diff(
                a[stream].splitlines(), b[stream].splitlines(),
                f"old {stream}", f"new {stream}", n=0, lineterm="")
            for line in lines:
                if line.startswith("@@"):
                    continue
                print(line)
                if not line.startswith(("---", "+++")):
                    keys.add(_line_key(line[1:]))
        tally.update(keys)
    print(f"{changed} of {len(set(old) | set(new))} runs differ")
    for key, count in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{key}: {count}")
    return 1 if changed else 0


def _line_key(line: str) -> str:
    """The key of an output line: the text before ` = ` (a report line)
    or `: ` (a message), else the whole line."""
    for sep in (" = ", ": "):
        if sep in line:
            return line.split(sep, 1)[0].strip()
    return line.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="cmd", required=True)
    rec = subs.add_parser("record", help="run the CLI and write its output")
    rec.add_argument("out")
    rec.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    dif = subs.add_parser("diff", help="compare two record files")
    dif.add_argument("old")
    dif.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "record":
        return record(args.repo, args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
