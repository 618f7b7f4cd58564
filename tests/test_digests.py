"""Every benchmark op writes the bytes recorded in benchmarks/digests.json.

Runs seed 0 of each workload the way benchmarks/record_digests.py does
(set-up in a fresh directory, then each op through the CLI in-process)
and compares each output's sha256 with the recorded one. A change meant
to alter a result file re-records digests.json.
"""
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))

import checks  # noqa: E402
import worker  # noqa: E402

import vemse.cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_seed_0_outputs_match_the_recorded_digests(workload, tmp_path, monkeypatch):
    recorded = worker.recorded_digests(workload, 0)
    assert recorded, "no digests recorded for %s seed 0" % (workload,)
    worker.setup(workload, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    digests = {}
    for kind, argv in worker.build_ops(workload, 0):
        rc, _ = worker.run_op(vemse.cli, argv, io.StringIO(), kind + ".csv")
        assert rc == 0, "%s exited %r" % (kind, rc)
        digests[kind] = checks.sha256_file(kind + ".csv")
    assert digests == recorded
