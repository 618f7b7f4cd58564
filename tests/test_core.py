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
    coarse_grain,
    resolve_tolerance,
    sampen,
)
from vemse.estimators import _pair_counts
from oracles import naive_counts, naive_templates


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


class TestPairCounts:
    """Exact unordered pair counts (lo at dim d, hi at d + 1) from the kernel."""

    def test_constant_signal_all_match(self):
        lo, hi = _pair_counts(np.full((1, 10), 5.0), 1, [0.5], [2])
        assert (lo[0][0], hi[0][0]) == (9 * 8 // 2, 8 * 7 // 2)

    def test_no_pair_within_radius(self):
        lo, hi = _pair_counts(np.array([[0.0, 10.0, 20.0, 30.0]]), 1, [1.0], [1])
        assert (lo[0][0], hi[0][0]) == (0, 0)

    def test_self_match_excluded(self):
        # every distance is 0 or exactly the radius: with self-pairs left
        # out and an inclusive boundary, all T(T-1)/2 pairs match
        x = np.tile([0.0, 1.0], 25)[None, :]
        lo, hi = _pair_counts(x, 1, [1.0], [2])
        assert (lo[0][0], hi[0][0]) == (49 * 48 // 2, 48 * 47 // 2)

    def test_wgn_against_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200)
        lo, hi = _pair_counts(x[None, :], 1, [0.2], [2])
        for count, dim in ((lo[0][0], 2), (hi[0][0], 3)):
            assert 2 * count == sum(naive_counts(naive_templates(list(x), dim, 1), 0.2))

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(3)
        chans = rng.standard_normal((2, 150))
        prev = [rows[0] for rows in _pair_counts(chans, 1, [0.05], [2, 3])]
        for radius in (0.1, 0.2, 0.5, 1.0):
            cur = [rows[0] for rows in _pair_counts(chans, 1, [radius], [2, 3])]
            assert np.all(cur[0] >= prev[0]) and np.all(cur[1] >= prev[1])
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
