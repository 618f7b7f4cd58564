"""vemse benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload compute --seed 0 --seconds 28 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/`` and the oracles from ``tests/``. Set-up runs
SETUP_REPS times, each in a fresh process that imports the package and
writes the inputs; the timed ops then run in one more fresh process. All
children get one BLAS/OpenMP thread. Work files go to ``.bench_work/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import worker

SETUP_REPS = 3
DEADLINE_S = 170.0

# End-to-end metrics: (name, unit, better). op_a_s and op_b_s are the median
# wall times of the first and second op kind in the workload's `ops` list; a
# workload with one op kind reports it as both.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_a_s", "s", "lower"),
    ("op_b_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run a worker process to completion and return its JSON result."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(worker.HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out" % (args[0],)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def check_layout():
    for rel in ("src/vemse/cli.py", "tests/oracles.py", "benchmarks/digests.json"):
        if not os.path.isfile(os.path.join(worker.ROOT, rel)):
            raise BenchError("%s not found under %s: run from a full checkout"
                             % (rel, worker.ROOT))


def op_kinds(workload):
    """The op kinds that op_a_s and op_b_s time, fixed by their order in `ops`."""
    kinds = [kind for kind, _ in worker.WORKLOADS[workload]["ops"]]
    return kinds[0], kinds[-1]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(worker.ROOT, ".bench_work", workload)
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", workdir]
    setups = [child(["setup"] + common, deadline) for _ in range(SETUP_REPS)]
    ops = child(["ops"] + common + ["--seconds", str(seconds), "--trace", str(int(trace))],
                deadline)

    op_s = {kind: statistics.median(v) for kind, v in ops["op_s"].items()}
    kind_a, kind_b = op_kinds(workload)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_a_s": op_s[kind_a],
        "op_b_s": op_s[kind_b],
        "peak_rss_mib": ops["peak_rss_mib"],
    }
    # Each kind's median under its own name, and the failure ratio: printed
    # and kept, not gated.
    named = {kind + "_s": (v, "s") for kind, v in op_s.items()}
    points = worker.WORKLOADS[workload].get("points_per_op")
    if points:
        for kind, v in op_s.items():
            named[kind + "_points_per_s"] = (points / v, "1/s")
    named["fail_ratio"] = (ops["failed"] / ops["attempted"], "ratio")

    facts = dict(ops["facts"], workload=workload, seed=seed, run_seconds=seconds,
                 trace=int(trace), nproc=os.cpu_count(),
                 cpus_usable=len(os.sched_getaffinity(0)), setup_reps=SETUP_REPS,
                 setup_s_samples=[s["setup_s"] for s in setups],
                 inputs=setups[-1]["inputs"],
                 op_counts={k: len(v) for k, v in ops["op_s"].items()},
                 op_a_kind=kind_a, op_b_kind=kind_b,
                 child_env=CHILD_ENV)
    result = {"facts": facts, "end_to_end": e2e,
              "op_medians": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
              "op_s": ops["op_s"], "problems": ops["problems"],
              "attempted": ops["attempted"], "failed": ops["failed"]}
    if trace:
        result["per_layer"] = ops["per_layer"]
        result["traced_op_s"] = ops["traced_op_s"]
        result["trace_overhead"] = ops["trace_overhead"]
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, trace):
    """Print the human-readable table; return the JSON object for the last line."""
    facts = result["facts"]
    print("workload %s  seed %d  trace %d  run %ss  python %s  numpy %s  scipy %s  nproc %d"
          % (facts["workload"], facts["seed"], facts["trace"], facts["run_seconds"],
             facts["python"], facts["numpy"], facts["scipy"], facts["nproc"]))
    print("  ops timed: %s; op_a_s is %s, op_b_s is %s"
          % (facts["op_counts"], facts["op_a_kind"], facts["op_b_kind"]))
    table = [(n, u, result["end_to_end"][n]) for n, u, _ in END_TO_END]
    table += [(n, m["unit"], m["value"]) for n, m in result["op_medians"].items()]
    if trace:
        table += [(n, u, result["per_layer"][n]) for n, u, _ in worker.PER_LAYER]
    for name, unit, value in table:
        print("  %-38s %14.6g %s" % (name, value, unit))
    if trace:
        over = result["trace_overhead"]
        print("  trace.overhead_ratio: median of %d paired cycles, range %.4f..%.4f"
              % (len(over["ratios"]), min(over["ratios"]), max(over["ratios"])))
    for problem in result["problems"]:
        print("  FAILED %s" % (problem,))
    print("facts: %s" % (json.dumps(facts, sort_keys=True),))
    wanted = worker.PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u, _ in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="vemse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        check_layout()
        out = report(run_workload(args.workload, args.seed, args.seconds, args.trace),
                     args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % (exc,), file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
