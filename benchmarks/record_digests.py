"""Record the sha256 of every op output for the seeds the benchmark checks.

    python3 benchmarks/record_digests.py --seeds 0..9

Runs one op of each kind per workload and seed and rewrites digests.json.
Outputs must stay byte-identical, so re-record only for a change that is
meant to alter result files, and say so in that change.
"""
from __future__ import annotations

import argparse
import io
import json
import os

import checks
import worker


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0..9", help="inclusive range a..b")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("..")
    import vemse.cli as cli

    digests = {}
    sink = io.StringIO()
    for workload in worker.WORKLOADS:
        workdir = os.path.join(worker.ROOT, ".bench_work", "digests", workload)
        os.makedirs(workdir, exist_ok=True)
        for seed in range(int(lo), int(hi or lo) + 1):
            worker.setup(workload, seed, workdir)
            here = os.getcwd()
            os.chdir(workdir)
            try:
                for kind, op_argv in worker.build_ops(workload, seed):
                    rc, _ = worker.run_op(cli, op_argv, sink, kind + ".csv")
                    if rc != 0:
                        raise SystemExit("%s seed %d: %s exited %r" % (workload, seed, kind, rc))
                    digests.setdefault(workload, {}).setdefault(str(seed), {})[kind] = \
                        checks.sha256_file(kind + ".csv")
            finally:
                os.chdir(here)
            print(workload, seed, digests[workload][str(seed)], flush=True)
    with open(worker.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
