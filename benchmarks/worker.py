"""One process of the benchmark: a set-up, or the timed ops of one workload.

    python3 benchmarks/worker.py setup --workload W --seed S --dir D
    python3 benchmarks/worker.py ops --workload W --seed S --dir D --seconds T --trace 0|1

Both print one JSON object as their last line. ``run.py`` launches them;
they are separate processes so that set-up time includes the package
import and so that peak memory belongs to the process running the ops.
Ops call ``vemse.cli.main`` in-process, one at a time (a closed loop with
one client).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402  (stdlib-only imports, so set-up timing is unaffected)
import tracer  # noqa: E402

N_CHANNELS = 4

# Each op is (kind, argv); the op writes `<kind>.csv` in the work directory.
# "{seed}" is replaced by the workload seed.
WORKLOADS = {
    "compute": {
        "records": {"rec.csv": 4000},
        "ops": [
            ("compute_vemse", ["compute", "--estimator", "vemse", "--input", "rec.csv",
                               "--scales", "1..20"]),
            ("compute_mmse", ["compute", "--estimator", "mmse", "--input", "rec.csv",
                              "--scales", "1..5"]),
        ],
        "replay": "compute_vemse",
    },
    "sweep_r": {
        "records": {},
        "ops": [
            ("sweep", ["sweep", "--vary", "r", "--values", "0.1:0.1:1.5",
                       "--models", "wgn,ar1", "--n", "1000", "--realizations", "3",
                       "--seed", "{seed}"]),
        ],
        # 15 radii x 2 models x 3 realizations
        "points_per_op": 90,
    },
    "record_io": {
        "records": {"long.csv": 100000},
        "ops": [
            ("surrogate", ["surrogate", "--input", "long.csv", "--seed", "{seed}"]),
            ("head_compute", ["compute", "--estimator", "sampen", "--input", "long.csv",
                              "--max-rows", "4000"]),
        ],
        "replay": "head_compute",
    },
}

DIGESTS_PATH = os.path.join(HERE, "digests.json")

# Per-layer metrics: (name, unit, better). Values are per cycle, one op of
# each kind in the workload's mix, from the median op of each kind.
PER_LAYER = [
    ("estimators.vemse.calls", "count", "lower"),
    ("estimators.vemse.self_s", "s", "lower"),
    ("estimators.mmse.calls", "count", "lower"),
    ("estimators.mmse.self_s", "s", "lower"),
    ("estimators.coarse_grain.calls", "count", "lower"),
    ("estimators.coarse_grain.self_s", "s", "lower"),
    ("estimators.resolve_tolerance.calls", "count", "lower"),
    ("estimators.resolve_tolerance.self_s", "s", "lower"),
    ("estimators.candidate_pairs", "pairs_computed", "lower"),
    ("estimators.pairs_per_s", "pairs/s", "higher"),
    ("estimators.defined_ratio", "ratio", "higher"),
    ("dataio.load_record.calls", "count", "lower"),
    ("dataio.load_record.self_s", "s", "lower"),
    ("dataio.read_result.self_s", "s", "lower"),
    ("dataio.read_result.rows", "count", "lower"),
    ("dataio.read_result.mb_per_s", "MB/s", "higher"),
    ("dataio.rows_kept_ratio", "ratio", "higher"),
    ("dataio.write_result.self_s", "s", "lower"),
    ("dataio.write_result.mb_per_s", "MB/s", "higher"),
    ("cli.run_surrogate.self_s", "s", "lower"),
    ("signals.shuffle_surrogate.self_s", "s", "lower"),
    ("experiments.run_sweep.self_s", "s", "lower"),
    ("experiments.realize_bundle.calls", "count", "lower"),
    ("experiments.realize_bundle.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def build_ops(workload, seed):
    return [(kind, [a.replace("{seed}", str(seed)) for a in argv] + ["--output", kind + ".csv"])
            for kind, argv in WORKLOADS[workload]["ops"]]


def recorded_digests(workload, seed):
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def setup(workload, seed, workdir):
    """Import the package and write the workload's input records."""
    t0 = time.perf_counter()
    import numpy as np
    from vemse import AR2, MultichannelSeries, generate_ar, write_record

    inputs = {}
    for name, n in WORKLOADS[workload]["records"].items():
        chans = np.stack([generate_ar(AR2, n, seed=(seed, 0, c)) for c in range(N_CHANNELS)])
        path = os.path.join(workdir, name)
        write_record(MultichannelSeries(chans), path)
        inputs[name] = {"shape": [n, N_CHANNELS], "bytes": os.path.getsize(path)}
    return {"setup_s": time.perf_counter() - t0, "inputs": inputs}


def run_op(cli, argv, sink, output):
    """Run one CLI op in-process; returns (exit code, wall seconds).

    The op's `output` file is removed first, so an op that writes nothing
    cannot pass its checks on a file left by an earlier op or run.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(output)
    sink.seek(0)
    sink.truncate()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed op, not the end of the run
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - t0


def post_checks(workload, checker, cli, sink):
    """Content checks on the outputs, made once after the timed ops."""
    spec = WORKLOADS[workload]
    kind = spec.get("replay")
    if kind is not None:
        replayed = "replay_" + kind + ".csv"
        rc, _ = run_op(cli, ["replay", "--input", kind + ".csv", "--output", replayed],
                       sink, replayed)
        checker.replay(kind, rc, replayed)
    if workload == "compute":
        for kind in ("compute_vemse", "compute_mmse"):
            problem = checks.oracle_problem("rec.csv", kind + ".csv")
            if problem:
                checker.reject(kind, problem)
    elif workload == "record_io":
        problem = checks.permutation_problem("long.csv", "surrogate.csv")
        if problem:
            checker.reject("surrogate", problem)
    elif workload == "sweep_r":
        problem = checks.sweep_problem("sweep.csv", 15, ["wgn", "ar1"], 3)
        if problem:
            checker.reject("sweep", problem)


def trace_overhead(untraced, traced):
    """Traced cycle time over untraced cycle time, paired cycle by cycle.

    Cycles alternate untraced and traced, so the j-th traced cycle is
    compared with the untraced cycle just before it; pairing keeps the
    machine's slow drift out of the ratio. Returns the median ratio and
    every paired ratio.
    """
    ratios = [sum(traced[k][j] for k in traced) / sum(untraced[k][j] for k in untraced)
              for j in range(min(len(v) for v in traced.values()))]
    return {"median": statistics.median(ratios), "ratios": ratios}


def layer_metrics(spans, kind_of_op, overhead_ratio):
    """Per-layer metrics per cycle: for each kind, the median over its traced ops."""
    totals = tracer.op_totals(spans)
    cycle = {}
    for kind in sorted(set(kind_of_op.values())):
        ops = [totals.get(op, {}) for op, k in kind_of_op.items() if k == kind]
        for name in set().union(*ops):
            fields = set().union(*(o.get(name, {}) for o in ops))
            for field in fields:
                med = statistics.median(o.get(name, {}).get(field, 0) for o in ops)
                cycle.setdefault(name, {})
                cycle[name][field] = cycle[name].get(field, 0) + med

    def get(name, field):
        return cycle.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "rows"):
            out[name] = get(layer, field)
    est_s = get("estimators.vemse", "self_s") + get("estimators.mmse", "self_s")
    pairs = get("estimators.vemse", "pairs") + get("estimators.mmse", "pairs")
    out["estimators.candidate_pairs"] = pairs
    out["estimators.pairs_per_s"] = ratio(pairs, est_s)
    out["estimators.defined_ratio"] = ratio(
        get("estimators.vemse", "defined") + get("estimators.mmse", "defined"),
        get("estimators.vemse", "points") + get("estimators.mmse", "points"))
    for io_name in ("dataio.read_result", "dataio.write_result"):
        out[io_name + ".mb_per_s"] = ratio(get(io_name, "bytes") / 1e6, get(io_name, "self_s"))
    out["dataio.rows_kept_ratio"] = ratio(get("dataio.load_record", "rows_kept"),
                                          get("dataio.load_record", "rows_parsed"))
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}


def blas_versions():
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = "%s %s" % (blas.get("name"), blas.get("version"))
        except (KeyError, TypeError, ValueError) as exc:
            out[mod.__name__] = "unknown (%s)" % (exc,)
    return out


def run_ops(workload, seed, seconds, trace, workdir):
    """Run cycles of the workload's ops for about `seconds`.

    There is no warm-up cycle: a CLI user pays first-call costs on every
    invocation, and the median keeps them from dominating.
    With trace on, cycles alternate untraced and traced; the untraced ones
    give the base of trace.overhead_ratio.
    """
    import numpy
    import scipy
    import vemse.cli as cli

    os.chdir(workdir)
    ops = build_ops(workload, seed)
    checker = checks.Checker(recorded_digests(workload, seed))
    sink = io.StringIO()
    tr = tracer.Tracer() if trace else None
    untraced = {kind: [] for kind, _ in ops}
    traced = {kind: [] for kind, _ in ops}
    kind_of_op = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        on = trace and cycle % 2 == 1
        if on:
            tr.install()
        for kind, argv in ops:
            if on:
                tr.op = len(kind_of_op)
                kind_of_op[tr.op] = kind
            rc, dt = run_op(cli, argv, sink, kind + ".csv")
            (traced if on else untraced)[kind].append(dt)
            checker.op(kind, rc, kind + ".csv")
        if on:
            tr.uninstall()
        cycle += 1
        elapsed = time.perf_counter() - start
        # Stop where the window ends closest to `seconds` (one more cycle
        # would overshoot by more than stopping now falls short).
        if elapsed + elapsed / cycle / 2 >= seconds and (not trace or cycle % 2 == 0):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    window_s = time.perf_counter() - start
    post_checks(workload, checker, cli, sink)

    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "op_s": untraced,
        "peak_rss_mib": peak_rss_mib,
        "facts": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_versions(),
            "vemse": getattr(sys.modules["vemse"], "__version__", "unknown"),
            "digests_checked": sorted(checker.recorded),
            "window_s": window_s,
            "checks_s": time.perf_counter() - start - window_s,
        },
    }
    if trace:
        overhead = trace_overhead(untraced, traced)
        result["per_layer"] = layer_metrics(tr.spans, kind_of_op, overhead["median"])
        result["traced_op_s"] = traced
        result["trace_overhead"] = overhead
        tr.write("spans.jsonl")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", "ops"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.role == "setup":
        out = setup(args.workload, args.seed, args.dir)
    else:
        out = run_ops(args.workload, args.seed, args.seconds, bool(args.trace), args.dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
