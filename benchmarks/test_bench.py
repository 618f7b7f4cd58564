"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""
import json
import os
import re

import numpy as np
import pytest

import checks
import run
import tracer
import worker

import vemse
import vemse.cli
import vemse.estimators
import vemse.experiments
from vemse import AR2, EntropyParams, MultichannelSeries, ToleranceRule, generate_ar


def _span(i, parent, t0, t1):
    return {"id": i, "parent": parent, "name": "s%d" % i, "op": 0, "t0": t0, "t1": t1}


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0, None, 0.0, 10.0),   # root: 10 - (3 + 2) = 5
             _span(1, 0, 1.0, 4.0),       # child: 3 - 1 = 2
             _span(2, 1, 2.0, 3.0),       # grandchild: 1
             _span(3, 0, 5.0, 7.0)]       # child: 2
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_op_totals_sum_per_op_and_count_rows_parsed_under_load_record():
    spans = [dict(_span(0, None, 0.0, 4.0), name="dataio.load_record",
                  counts={"rows_kept": 10}),
             dict(_span(1, 0, 1.0, 3.0), name="dataio.read_result",
                  counts={"rows": 40, "bytes": 100})]
    per = tracer.op_totals(spans)[0]
    assert per["dataio.load_record"] == {"calls": 1, "self_s": 2.0, "rows_kept": 10,
                                         "rows_parsed": 40}
    assert per["dataio.read_result"]["self_s"] == 2.0


def test_tracer_wraps_every_binding_and_restores_them():
    original = vemse.estimators.vemse
    runner = vemse.cli._RUNNERS["surrogate"]
    tr = tracer.Tracer()
    tr.install()
    try:
        for module in (vemse, vemse.cli, vemse.estimators, vemse.experiments):
            assert module.vemse.__wrapped__ is original
        assert vemse.cli._RUNNERS["surrogate"].__wrapped__ is runner
        x = generate_ar(AR2, 300, seed=(1, 0, 0))
        vemse.experiments.vemse(MultichannelSeries(x), EntropyParams(m=2, r=0.2, scales=[1, 2]))
    finally:
        tr.uninstall()
    assert vemse.cli.vemse is original and vemse.experiments.vemse is original
    assert vemse.cli._RUNNERS["surrogate"] is runner
    names = [s["name"] for s in tr.spans]
    assert names[0] == "estimators.vemse"
    assert names.count("estimators.coarse_grain") == 2
    assert tr.spans[0]["counts"]["points"] == 2


def _pairs_seen(monkeypatch, name, count_of):
    """Record T(T-1) of every pass the estimator really counts."""
    seen = []
    real = getattr(vemse.estimators, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None:
            t = count_of(*args, **kwargs)
            seen.append(t * (t - 1))
        return out

    monkeypatch.setattr(vemse.estimators, name, spy)
    return seen


@pytest.mark.parametrize("equal", [False, True])
def test_vemse_pairs_match_the_passes_the_estimator_runs(monkeypatch, equal):
    def count_of(y, dim, lag, radius, cap=None):
        t = y.size - (dim - 1) * lag
        return t if cap is None else min(t, cap)

    seen = _pairs_seen(monkeypatch, "_phi", count_of)
    chans = np.stack([generate_ar(AR2, 60, seed=(2, 0, c)) for c in range(3)])
    scales = [1, 4, 9, 15]   # the last scale is infeasible for the later channels
    vemse.estimators.vemse(MultichannelSeries(chans),
                           EntropyParams(m=2, r=0.3, L=2, scales=scales),
                           equal_template_count=equal)
    assert tracer.vemse_pairs(60, 3, 2, 2, scales, equal) == sum(seen)


def test_mmse_pairs_match_the_passes_the_estimator_runs(monkeypatch):
    def count_of(channels, dims, lags, radius):
        return channels[0].size - max(dims) * max(lags)

    seen = _pairs_seen(monkeypatch, "_cdv_phi", count_of)
    chans = np.stack([generate_ar(AR2, 80, seed=(3, 0, c)) for c in range(3)])
    scales = [1, 5, 13, 20]
    vemse.estimators.mmse(MultichannelSeries(chans), [2, 3, 2], ToleranceRule.trace(0.2),
                          scales=scales)
    assert tracer.mmse_pairs(80, [2, 3, 2], [1, 1, 1], scales) == sum(seen)


def test_corrupted_output_counts_as_failure(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("scale,value\n1,0.5\n")
    checker = checks.Checker()
    assert checker.op("compute_vemse", 0, path)
    path.write_text("scale,value\n1,0.6\n")
    assert not checker.op("compute_vemse", 0, path)
    assert not checker.op("compute_vemse", 3, path)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_digest_mismatch_and_rejected_content_count_as_failures(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("a\n")
    checker = checks.Checker({"sweep": "0" * 64})
    assert not checker.op("sweep", 0, path)
    checker = checks.Checker({"sweep": checks.sha256_file(path)})
    assert checker.op("sweep", 0, path) and checker.op("sweep", 0, path)
    checker.reject("sweep", "wrong content")
    assert (checker.attempted, checker.failed) == (2, 2)


def test_oracle_check_flags_a_wrong_curve_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chans = np.stack([generate_ar(AR2, 120, seed=(4, 0, c)) for c in range(2)])
    vemse.write_record(MultichannelSeries(chans), "rec.csv")
    argv = ["compute", "--estimator", "vemse", "--input", "rec.csv", "--scales", "1..3",
            "--output", "curve.csv"]
    assert vemse.cli.main(argv) == 0
    assert checks.oracle_problem("rec.csv", "curve.csv") is None
    lines = open("curve.csv").read().split("\n")
    last = lines[-2].split(",")
    last[1] = repr(float(last[1]) + 1e-9)
    lines[-2] = ",".join(last)
    open("curve.csv", "w").write("\n".join(lines))
    assert "scale 3" in checks.oracle_problem("rec.csv", "curve.csv")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.load(open(os.path.join(worker.ROOT, "BENCHMARK.json")))
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    ours = {"end_to_end": run.END_TO_END, "per_layer": worker.PER_LAYER}
    for section, metrics in ours.items():
        assert [(m["name"], m["unit"], m["better"]) for m in spec[section]] == metrics
        for name, unit, _ in metrics:
            assert pattern.fullmatch(name) and len(name) <= 64
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_op_metrics_are_tied_to_op_kinds_by_position():
    assert run.op_kinds("compute") == ("compute_vemse", "compute_mmse")
    assert run.op_kinds("sweep_r") == ("sweep", "sweep")
    assert run.op_kinds("record_io") == ("surrogate", "head_compute")


def test_op_that_writes_nothing_fails_despite_a_stale_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "surrogate.csv").write_text("left by an earlier op\n")

    class Silent:
        @staticmethod
        def main(argv):
            return 0

    checker = checks.Checker()
    rc, _ = worker.run_op(Silent, ["surrogate"], worker.io.StringIO(), "surrogate.csv")
    assert not checker.op("surrogate", rc, "surrogate.csv")
    assert "no output" in checker.problems[0]


def test_trace_overhead_pairs_each_traced_cycle_with_the_one_before():
    untraced = {"a": [1.0, 2.0, 1.0], "b": [1.0, 2.0, 3.0]}
    traced = {"a": [1.1, 2.2, 1.0], "b": [1.1, 2.2, 3.0]}
    over = worker.trace_overhead(untraced, traced)
    assert over["ratios"] == pytest.approx([1.1, 1.1, 1.0])
    assert over["median"] == pytest.approx(1.1)
