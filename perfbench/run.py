"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs as one
closed-loop client in a fresh worker process (perfbench/worker.py) with
BLAS pinned to one thread and ``src`` first on the import path.

--trace 0 prints the end-to-end metrics.  The measuring run passes
over the seed's task pool several times; a task's latency is the median
of its repeats, each scaled to a nominal host speed by a fixed probe
timed beside it (worker.HOST_PROBE_NOMINAL_S), because the shared
host's speed drifts by a third within minutes.  From those: the
throughput of one client, the median and 90th percentile latency,
set-up time (scaled the same way; median of several fresh processes,
half started before the measuring run and half after it), the share
of the pool's tasks that succeeded and passed their output check on
every repeat, and peak RSS.  The unscaled figures are printed too.
``attempted`` and ``failed`` count the pool's tasks once each, so they
depend on the seed only.

--trace 1 runs a fixed number of whole cycles of the same seed, each
untraced and traced in turn, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (stdlib only; lists the per-layer metrics)
from worker import HOST_PROBE_NOMINAL_S  # noqa: E402  (stdlib only)

WORKLOADS = ("certify-stream", "kl-lab", "kernels-scale")
SETUP_PROBES = 8          # fresh set-up-only processes besides the main run
SECONDS_PER_TRACE_CYCLE = 6.0   # traced cycles: one per this much of --seconds
TIME_LIMIT_S = 170.0
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "setup_s": "s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.workdir = os.path.join(
            self.root, OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
        src = os.path.join(self.root, "src")
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env
        self.calls = 0

    def worker(self, mode, **extra):
        """Run one fresh worker process and return its JSON result."""
        self.calls += 1
        out = os.path.join(self.workdir, f"result-{self.calls}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--workdir", self.workdir, "--out", out]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("time limit reached before a worker started")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stdout}{proc.stderr}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def end_to_end(self):
        # set-up noise comes in bursts: spread the probes around the run
        probes = [self.worker("setup") for _ in range(SETUP_PROBES // 2)]
        run = self.worker("run", seconds=self.args.seconds)
        probes += [self.worker("setup")
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        # each task's median over its repeats, at the nominal host speed
        per_task_s = [statistics.median(r) for r in run["scaled_latencies_s"]]
        lat_ms = sorted(1e3 * t for t in per_task_s)
        raw_ms = sorted(1e3 * statistics.median(r) for r in run["latencies_s"])
        metrics = {
            "tasks_per_s": len(per_task_s) / sum(per_task_s),
            "task_p50_ms": statistics.median(lat_ms),
            "task_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "setup_s": statistics.median(
                [p["setup_scaled_s"] for p in probes + [run]]),
            "ok_frac": 1.0 - run["failed"] / run["attempted"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        print(f"workload {self.args.workload} seed {self.args.seed}: "
              f"{run['executed']} runs of {run['attempted']} tasks in "
              f"{run['wall_s']:.2f} s "
              f"({run['executed'] / run['wall_s']:.4g} tasks/s of wall time), "
              f"first LAPACK call {1e3 * run['lapack_first_call_s']:.2f} ms")
        host = statistics.median(run["host_probe_s"])
        print(f"  host-speed probe: median {1e3 * host:.3f} ms over "
              f"{len(run['host_probe_s'])} probes (nominal "
              f"{1e3 * HOST_PROBE_NOMINAL_S:.3f} ms); unscaled: "
              f"task_p50_ms {statistics.median(raw_ms):.4g}, "
              f"task_p90_ms {statistics.quantiles(raw_ms, n=10)[8]:.4g}, "
              f"setup_s {statistics.median(p['setup_s'] for p in probes + [run]):.4g}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
        return run, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                     for k, v in metrics.items()}

    def per_layer(self):
        # whole cycles, as many on every machine, so counts per run compare
        cycles = max(1, round(self.args.seconds / SECONDS_PER_TRACE_CYCLE))
        spans = os.path.join(self.root, OUT_DIR,
                             f"spans-{self.args.workload}-seed{self.args.seed}.csv")
        traced = self.worker("trace", cycles=cycles, spans=spans)
        layers = traced["layers"]
        ref = traced["reference_counts"]
        print(f"workload {self.args.workload} seed {self.args.seed}: "
              f"{traced['attempted']} traced tasks, spans in {spans}")
        print("reference certify problems/orthant2.json --y 0,0: "
              f"g_subdiff {ref['polyfunc.g_subdiff']}, "
              f"lp_solve {ref['polyhedra.lp_solve']} "
              f"({ref['lp_solve_under_parse']} from parsing), "
              f"min_norm_weighted {ref['polyhedra.min_norm_weighted']}, "
              f"d2_lifted_g {ref['second_order.d2_lifted_g']}")
        units = {name: unit for name, unit, _ in tracer.metric_names()}
        return traced, {name: {"value": layers[name], "unit": units[name]}
                        for name in units}


def _report_failures(run):
    for cause, count in sorted(run["causes"].items(), key=lambda kv: -kv[1]):
        print(f"  failed x{count}: {cause}")


def main(argv=None):
    args = _parse_args(argv)
    root = os.getcwd()
    for needed in ("src/sqreparam/__init__.py", "problems/orthant2.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a "
                  "source checkout", file=sys.stderr)
            return 2
    runner = Runner(args)
    os.makedirs(runner.workdir, exist_ok=True)
    try:
        if args.trace:
            run, metrics = runner.per_layer()
        else:
            run, metrics = runner.end_to_end()
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    _report_failures(run)
    print(json.dumps({"correct": run["wrong"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
