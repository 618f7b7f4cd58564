"""Time the pair-count kernel (`vemse.estimators._pair_counts`) and mmse.

    python tools/bench_kernel.py [--base OTHER_CHECKOUT] [--out BENCH_kernel.json]

Cases, all with fixed seeds:

- ``channel_<N>``: `_pair_counts` on one white Gaussian channel of N
  samples (5k, 20k, 40k, 100k) at m = 2, radius 0.2 times its standard
  deviation;
- ``compute_shape``: `_pair_counts` on four 4000-sample AR(2) channels,
  the radius 0.15 times their covariance trace, counted at every scale
  1..20 at dims 2..5, as `vemse compute --scales 1..20` does;
- ``sweep_r_shape``: `_pair_counts` on the 6 realizations (wgn and ar1,
  3 each) of two 1000-sample channels at dims 2 and 3, each at the 15
  radii 0.1..1.5 times its covariance trace, as `vemse sweep --vary r
  --values 0.1:0.1:1.5 --models wgn,ar1 --realizations 3` does: many
  short blocks, so the shape most sensitive to per-block overhead;
- ``mmse_compute_shape``: `mmse` on the same four channels at dims 2 and
  scales 1..5, as `vemse compute --estimator mmse --scales 1..5` does;
- ``mmse_wide_radius``: `mmse` on two 4000-sample white Gaussian channels
  at dims 2 and the absolute radius 100, where every template pair
  matches: the shape that lists the most pairs, so the one that bounds
  the pair walk's memory;
- ``mmse_20k``: `mmse` on four 20000-sample AR(2) channels at dims 2,
  scale 1 and radius 0.15 times their covariance trace: the long-record
  shape, where the pair walk's per-tile overhead shows;
- ``acceptance10_p<P>_<estimator>``: `vemse` and `mmse` on the input of
  acceptance criterion 10 (P = 2 and 4 white-noise channels of 5000
  samples, m = 2, r = 0.15, scale 1), which requires vemse to be no
  slower than mmse;
- ``record_io_shape``: `load_record` and then `write_record` of a
  100000 x 4 AR(2) record (about 7.9 MB), as `vemse surrogate` reads and
  writes one; its peak resident set is the record path's memory, and the
  two sides must write the same bytes.

Each of the ROUNDS rounds times every case once in a fresh process per
checkout, this checkout and then --base, or --base first on
odd rounds, so the machine's drift falls on both sides. A case's time is
the least of its in-process repeats, and its memory the peak resident
set (ru_maxrss) of the process that ran it; the report keeps every
round's time and peak, their medians and the machine facts, and the
counts or probabilities the two sides give must agree. With --base it
also keeps the median of the per-round change/base time ratios: machine
load moves whole rounds, and both sides of a round share it, so that
ratio resolves changes of a few percent that the two medians do not.
This is not the gated benchmark under benchmarks/ and gates nothing.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# fresh-process runs per case and checkout; fewer leave a 2-CPU machine's
# spread wider than the gaps the report is read for
ROUNDS = 11

# name -> (samples, in-process repeats)
CHANNELS = {"channel_5k": (5_000, 5), "channel_20k": (20_000, 2),
            "channel_40k": (40_000, 1), "channel_100k": (100_000, 1)}
# name -> (channels, estimator)
ACCEPTANCE_10 = {"acceptance10_p%d_%s" % (p, est): (p, est)
                 for p in (2, 4) for est in ("vemse", "mmse")}
CASES = list(CHANNELS) + ["compute_shape", "sweep_r_shape", "mmse_compute_shape",
                          "mmse_wide_radius", "mmse_20k"] + list(ACCEPTANCE_10) + ["record_io_shape"]


def run_case(name):
    """Time one case in this process; returns (seconds, what it computed)."""
    import numpy as np
    from vemse import (AR2, EntropyParams, ModelBundle, MultichannelSeries, ToleranceRule,
                       coarse_grain, generate_ar, load_record, mmse, resolve_tolerance, vemse,
                       write_record)
    from vemse.estimators import _pair_counts
    from vemse.experiments import realize_bundle

    def counts_of(calls):
        out = [_pair_counts(chans, 1, radii, dims) for chans, radii, dims in calls]
        return [[int(v) for v in np.concatenate([lo.ravel(), hi.ravel()])] for lo, hi in out]

    def warm_up_mmse():
        # untimed: a --base checkout whose mmse imports scipy on its first
        # call pays that import here, not in the one timed call
        mmse(MultichannelSeries(record[:2, :50]), [2, 2])

    record = np.stack([generate_ar(AR2, 4000, seed=(0, 0, c)) for c in range(4)])
    if name in CHANNELS:
        n, reps = CHANNELS[name]
        x = np.random.default_rng(n).standard_normal(n)
        calls = [(x[None, :], [0.2 * float(x.std(ddof=1))], [2])]
        once = lambda: counts_of(calls)
    elif name == "compute_shape":
        reps = 3
        radius = resolve_tolerance(record, ToleranceRule.trace(0.15))
        calls = [(np.stack([coarse_grain(ch, tau) for ch in record]), [radius], [2, 3, 4, 5])
                 for tau in range(1, 21)]
        once = lambda: counts_of(calls)
    elif name == "sweep_r_shape":
        reps = 5
        realized = [realize_bundle(ModelBundle.homogeneous(kind, 2), 1000, 0, k)
                    for kind in ("wgn", "ar1") for k in range(3)]
        calls = [(chans, [resolve_tolerance(chans, ToleranceRule.trace(q / 10))
                          for q in range(1, 16)], [2, 3]) for chans in realized]
        once = lambda: counts_of(calls)
    elif name == "mmse_compute_shape":
        reps = 3
        data = MultichannelSeries(record)
        once = lambda: mmse(data, [2] * 4, ToleranceRule.trace(0.15), scales=range(1, 6)).probs
        once()  # warm-up, untimed
    elif name == "mmse_wide_radius":
        reps = 1
        data = MultichannelSeries(realize_bundle(ModelBundle.homogeneous("wgn", 2), 4000, 0, 0))
        once = lambda: mmse(data, [2, 2], ToleranceRule.absolute(100.0)).probs
        warm_up_mmse()
    elif name == "mmse_20k":
        reps = 1
        data = MultichannelSeries(np.stack([generate_ar(AR2, 20_000, seed=(0, 0, c))
                                            for c in range(4)]))
        once = lambda: mmse(data, [2] * 4, ToleranceRule.trace(0.15)).probs
        warm_up_mmse()
    elif name == "record_io_shape":
        reps = 3
        work = tempfile.TemporaryDirectory()  # removed when run_case returns
        src, out = os.path.join(work.name, "rec.csv"), os.path.join(work.name, "out.csv")
        write_record(MultichannelSeries(np.stack([generate_ar(AR2, 100_000, seed=(0, 0, c))
                                                  for c in range(4)])), src)

        def once():
            write_record(load_record(src), out)
            with open(out, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
    else:
        reps = 5
        p, estimator = ACCEPTANCE_10[name]
        data = MultichannelSeries(realize_bundle(ModelBundle.homogeneous("wgn", p), 5000, 0, 0))
        if estimator == "vemse":
            params = EntropyParams(m=2, r=0.15, L=1, scales=[1])
            once = lambda: vemse(data, params).probs
        else:
            once = lambda: mmse(data, [2] * p, ToleranceRule.trace(0.15), scales=[1]).probs
        once()  # warm-up, untimed, as in the acceptance test
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = once()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def child(src, name):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--case", name],
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="another checkout to time against this one")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernel.json"))
    ap.add_argument("--case", help=argparse.SUPPRESS)  # one timing, in a child process
    args = ap.parse_args(argv)
    if args.case:
        seconds, counts = run_case(args.case)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(json.dumps({"seconds": seconds, "rss_mib": rss_mib, "counts": counts}))
        return 0

    import numpy
    try:  # recorded as a machine fact only; the package does not need scipy
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    sides = {"change": os.path.join(ROOT, "src")}
    if args.base:
        sides["base"] = os.path.join(os.path.abspath(args.base), "src")
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy_version},
        "rounds": ROUNDS, "cases": {},
    }
    for name in CASES:
        runs = {side: [] for side in sides}
        rss = {side: [] for side in sides}
        counts = {}
        for r in range(ROUNDS):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                got = child(sides[side], name)
                runs[side].append(got["seconds"])
                rss[side].append(got["rss_mib"])
                counts[side] = got["counts"]
        if len({json.dumps(c) for c in counts.values()}) != 1:
            raise SystemExit("%s: the two checkouts count differently" % name)
        case = report["cases"][name] = {
            side: {"median_s": statistics.median(runs[side]), "runs_s": runs[side],
                   "median_rss_mib": statistics.median(rss[side]), "runs_rss_mib": rss[side]}
            for side in sides}
        line = " ".join("%s %.4f s %.1f MiB" % (side, case[side]["median_s"],
                                                case[side]["median_rss_mib"]) for side in sides)
        if "base" in sides:
            case["median_ratio"] = statistics.median(
                c / b for c, b in zip(runs["change"], runs["base"]))
            line += " change/base %.3f" % case["median_ratio"]
        print(name, line, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
