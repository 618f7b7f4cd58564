"""Unit tests for the shared estimator machinery."""
import math

import numpy as np
import pytest

from vemse import (
    DegenerateToleranceError,
    EntropyParams,
    InvalidParameterError,
    MultichannelSeries,
    ToleranceRule,
    build_templates,
    chebyshev_distance,
    coarse_grain,
    match_stats,
    resolve_tolerance,
    sampen,
)
from oracles import naive_phi


class TestCoarseGrain:
    def test_pair_means(self):
        assert coarse_grain([1, 3, 5, 7], 2).tolist() == [2, 6]

    def test_scale_one_identity(self):
        assert coarse_grain([4, 4, 4, 4, 4], 1).tolist() == [4, 4, 4, 4, 4]

    def test_remainder_dropped(self):
        assert coarse_grain([1, 2, 3, 4, 5], 2).tolist() == [1.5, 3.5]

    @pytest.mark.parametrize("tau", [0, -1, 6])
    def test_bad_tau(self, tau):
        with pytest.raises(InvalidParameterError):
            coarse_grain([1, 2, 3, 4, 5], tau)


class TestResolveTolerance:
    def test_unit_variance_single_channel(self):
        x = np.array([0.0, 1.0, 2.0])  # sample variance 1
        assert resolve_tolerance(x[None, :], ToleranceRule.trace(0.15)) == pytest.approx(0.15)

    def test_two_unit_variance_channels(self):
        rng = np.random.default_rng(1)
        chans = rng.standard_normal((2, 500))
        chans /= chans.std(axis=1, ddof=1, keepdims=True)
        assert resolve_tolerance(chans, ToleranceRule.trace(0.2)) == pytest.approx(0.4)

    def test_hand_computed_trace(self):
        # var([1,2,3,4]) = 5/3, var([2,4,6,8]) = 20/3, trace = 25/3
        chans = np.array([[1.0, 2, 3, 4], [2.0, 4, 6, 8]])
        got = resolve_tolerance(chans, ToleranceRule.trace(0.5))
        assert got == pytest.approx(0.5 * 25 / 3, rel=1e-12)

    def test_absolute_passthrough(self):
        assert resolve_tolerance(np.zeros((1, 4)), ToleranceRule.absolute(0.3)) == 0.3

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateToleranceError):
            resolve_tolerance(np.ones((2, 10)), ToleranceRule.trace(0.15))


class TestBuildTemplates:
    def test_sliding_pairs(self):
        t = build_templates([1, 2, 3, 4], 2, 1)
        assert t.templates.tolist() == [[1, 2], [2, 3], [3, 4]]

    def test_stride_two(self):
        t = build_templates([1, 2, 3, 4, 5], 2, 2)
        assert t.templates.tolist() == [[1, 3], [2, 4], [3, 5]]

    def test_count(self):
        t = build_templates(list(range(10)), 3, 1)
        assert len(t) == 8

    def test_too_short(self):
        with pytest.raises(InvalidParameterError):
            build_templates([1, 2, 3], 3, 2)


class TestChebyshev:
    def test_basic(self):
        assert chebyshev_distance([1, 2], [1.1, 2.4]) == pytest.approx(0.4)

    def test_identity(self):
        assert chebyshev_distance([3.5, -1], [3.5, -1]) == 0.0

    def test_absolute_value(self):
        assert chebyshev_distance([0, 0, 0], [1, -2, 0.5]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            chebyshev_distance([1, 2], [1, 2, 3])


class TestMatchStats:
    def test_constant_signal_all_match(self):
        t = build_templates([5.0] * 10, 2, 1)
        stats = match_stats(t, 0.5)
        assert np.all(stats.local_probabilities == 1.0)
        assert stats.global_probability == 1.0

    def test_no_pair_within_radius(self):
        t = build_templates([0.0, 10.0, 20.0, 30.0], 1, 1)
        stats = match_stats(t, 1.0)
        assert np.all(stats.counts == 0)
        assert stats.global_probability == 0.0

    def test_self_match_excluded(self):
        t = build_templates(np.zeros(50), 2, 1)
        stats = match_stats(t, 1.0)
        assert np.all(stats.counts == len(t) - 1)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        t = build_templates(rng.standard_normal(60), 2, 1)
        cnt = match_stats(t, 0.3).counts
        # recount by hand, transposed: j matching i implies i matching j
        tpl = t.templates
        manual = np.array([
            sum(1 for j in range(len(tpl))
                if j != i and np.max(np.abs(tpl[i] - tpl[j])) <= 0.3)
            for i in range(len(tpl))])
        assert np.array_equal(cnt, manual)

    def test_wgn_against_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200)
        t = build_templates(x, 2, 1)
        got = match_stats(t, 0.2).global_probability
        want = naive_phi(list(x), 2, 1, 0.2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(3)
        t = build_templates(rng.standard_normal(150), 2, 1)
        prev = match_stats(t, 0.05)
        for radius in (0.1, 0.2, 0.5, 1.0):
            cur = match_stats(t, radius)
            assert np.all(cur.counts >= prev.counts)
            assert cur.global_probability >= prev.global_probability
            prev = cur


class TestSampen:
    def test_constant_sequence_zero(self):
        assert sampen([2.0] * 50, 2, 0.1) == 0.0

    def test_alternating_near_zero(self):
        x = np.tile([1.0, -1.0], 500)
        # literal two-pass template counts leave a ~2.5e-6 residue
        assert abs(sampen(x, 2, 0.1)) < 1e-5
        # the classic equal-count convention is exactly zero
        assert sampen(x, 2, 0.1, equal_template_count=True) == 0.0

    def test_undefined_when_no_matches(self):
        x = np.array([0.0, 100.0, 1.0, 200.0, 2.0, 300.0, 3.0, 400.0])
        assert sampen(x, 2, 1e-6) is None

    def test_too_short_is_undefined(self):
        assert sampen([1.0, 2.0, 3.0], 3, 0.2) is None

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            sampen([1.0, 2.0, 3.0, 4.0], 2, 0.0)


class TestSeriesTypes:
    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            MultichannelSeries(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("make", [
        lambda: EntropyParams(r=float("nan")),
        lambda: ToleranceRule(value=float("nan")),
        lambda: ToleranceRule.absolute(float("nan")),
    ], ids=["params", "rule", "absolute-rule"])
    def test_nan_tolerance_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="nan"):
            make()

    def test_channel_order_preserved(self):
        data = MultichannelSeries(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                  channel_labels=["a", "b"])
        assert data.channel(0).tolist() == [1.0, 2.0]
        assert data.channel_labels == ["a", "b"]
