"""Unit tests for the shared estimator machinery."""
import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest

from vemse import (
    AR2,
    ArModel,
    DegenerateToleranceError,
    EntropyCurve,
    EntropyParams,
    InvalidParameterError,
    ModelBundle,
    MultichannelSeries,
    SweepSpec,
    ToleranceRule,
    coarse_grain,
    generate_ar,
    generate_flicker,
    generate_wgn,
    mix_noise,
    mmse,
    mse,
    noise_robustness_study,
    resolve_tolerance,
    sampen,
    timing_benchmark,
    vemse,
)
from vemse import estimators
from vemse.estimators import _band_counts, _pair_counts, _sort_channel, _sweep_counts
from vemse.experiments import generate_channel, realize_bundle
from vemse.series import real_number, whole_number
from oracles import naive_counts, naive_sampen, naive_templates, naive_vemse_point


def count_one(counter, y, lag, radii, d):
    """One channel's (lo, hi) from one counter, fed the channel's one sort."""
    return counter(y, lag, radii, d, _sort_channel(y, lag, radii, d, False))


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

    def test_overflowing_trace_degenerate_with_no_warning(self):
        # squares of samples near 1e154 pass the largest float, so the
        # variance overflows: refused, never an infinite radius
        chans = 1e154 * np.random.default_rng(2).standard_normal((2, 300))
        params = EntropyParams(m=2, r=0.15, L=1, scales=[1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateToleranceError, match="overflows"):
                resolve_tolerance(chans, ToleranceRule.trace(0.15))
            for normalize in (False, True):
                with pytest.raises(DegenerateToleranceError, match="overflows"):
                    vemse(MultichannelSeries(chans), params, normalize=normalize)
            with pytest.raises(DegenerateToleranceError, match="overflows"):
                mmse(MultichannelSeries(chans), [2, 2])
            # per scale, each scale has no radius, so each point is undefined
            curve = vemse(MultichannelSeries(chans), params, per_scale_tolerance=True)
        assert curve.values == [None, None]

    def test_overflowing_radius_degenerate(self):
        # a finite quotient times a finite trace can still pass the largest
        # float: refused, never an infinite radius
        data = MultichannelSeries(1e10 * np.random.default_rng(3).standard_normal((2, 200)))
        params = EntropyParams(m=2, r=1e300, L=1, scales=[1, 2])
        with pytest.raises(DegenerateToleranceError, match="radius overflows"):
            vemse(data, params)
        with pytest.raises(DegenerateToleranceError, match="radius overflows"):
            mmse(data, [2, 2], ToleranceRule.trace(1e308))  # z-scored trace is 2
        assert vemse(data, params, per_scale_tolerance=True).values == [None, None]
        # an absolute radius of 1e300 is finite: every pair matches
        assert vemse(data, params, ToleranceRule.absolute(1e300)).values == [0.0, 0.0]


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

    def test_band_window_keeps_a_pair_that_rounds_into_the_radius(self):
        # 0.1 - (-0.3) rounds to exactly 0.4, but -0.3 + 0.4 rounds below
        # 0.1: a band taken from the search alone would drop the pair
        x = np.array([-3.0, 1.0]) * 0.1
        assert x[1] - x[0] <= 0.4 and x[0] + 0.4 < x[1]
        lo, hi = count_one(_band_counts, x, 1, [0.4], 1)
        assert (lo[0], hi[0]) == (1, 0)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(3)
        chans = rng.standard_normal((2, 150))
        prev = [rows[0] for rows in _pair_counts(chans, 1, [0.05], [2, 3])]
        for radius in (0.1, 0.2, 0.5, 1.0):
            cur = [rows[0] for rows in _pair_counts(chans, 1, [radius], [2, 3])]
            assert np.all(cur[0] >= prev[0]) and np.all(cur[1] >= prev[1])
            prev = cur


class TestCounterChoice:
    """Which exact counter _pair_counts sends each channel to."""

    @staticmethod
    def split(chans, radii, dims):
        """The dims sent to the band counter and to the sweep, and the counts."""
        with mock.patch.object(estimators, "_band_counts", wraps=estimators._band_counts) as band, \
                mock.patch.object(estimators, "_sweep_counts",
                                  wraps=estimators._sweep_counts) as sweep:
            counts = _pair_counts(chans, 1, radii, dims)
        return ([call.args[3] for call in band.call_args_list],
                [call.args[3] for call in sweep.call_args_list], counts)

    def test_head_compute_goes_to_the_band(self):
        # the record_io head compute: sampen on the first 4000 rows of an
        # AR(2) channel at 0.15 times its variance (r about 0.149)
        x = generate_ar(AR2, 100_000, seed=(0, 0, 0))[:4000]
        radius = resolve_tolerance(x[None, :], ToleranceRule.trace(0.15))
        assert 0.14 < radius < 0.16
        assert self.split(x[None, :], [radius], [2])[:2] == ([2], [])

    @pytest.mark.parametrize("kind", ["wgn", "ar1"])
    def test_widest_r_sweep_goes_to_the_sweep(self, kind):
        # sweep_r: 2 channels of 1000, 15 radii up to 1.5 times the trace
        chans = realize_bundle(ModelBundle.homogeneous(kind, 2), 1000, 0, 0)
        radii = [resolve_tolerance(chans, ToleranceRule.trace(q / 10)) for q in range(1, 16)]
        assert 2.8 < max(radii) < 3.2
        assert self.split(chans, radii, [2, 3])[:2] == ([], [2, 3])

    def test_compute_shape_sorts_each_channel_once(self):
        # 4000 x 4 AR(2) at 0.15 times the trace (r about 0.6 sd): a third
        # of all pairs lie in the band at scale 1, more at coarser scales.
        # Only the lowest dims of the first scales are cheaper in the band;
        # every other channel goes to the sweep. Either way the channel is
        # sorted once, and its band and ranks both come from that sort
        chans = np.stack([generate_ar(AR2, 4000, seed=(0, 0, c)) for c in range(4)])
        radius = resolve_tolerance(chans, ToleranceRule.trace(0.15))
        banded = {}
        for tau in range(1, 21):
            cg = np.stack([coarse_grain(ch, tau) for ch in chans])
            with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                    mock.patch.object(np, "sort", wraps=np.sort) as sort:
                band, sweep = self.split(cg, [radius], [2, 3, 4, 5])[:2]
            assert sorted(band + sweep) == [2, 3, 4, 5]
            if band:
                banded[tau] = band
            assert [call.args[0].size for call in argsort.call_args_list] == [cg.shape[1]] * 4
            sort.assert_not_called()
        assert banded == {1: [2, 3], 2: [2], 3: [2], 4: [2], 5: [2]}

    @pytest.mark.parametrize("kind", ["normal", "offset", "grid", "integers"])
    def test_band_is_the_close_pairs_of_the_templates(self, kind):
        # the band is exact: its size is the number of close pairs among
        # the first t samples, on ties (the 0.1 grid, integers) and at a
        # large offset, where the differences round; the drawn dimension,
        # lag and equal-count flag put t anywhere from 0 to n
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            x = {"normal": lambda: rng.standard_normal(n),
                 "offset": lambda: 1e6 + rng.standard_normal(n),
                 "grid": lambda: rng.integers(-20, 20, n) * 0.1,
                 "integers": lambda: rng.integers(-20, 20, n).astype(float)}[kind]()
            for radius in (0.1, 0.25, 0.5, 1.0, 3.0):
                for d, lag, equal in ((1, 1, False), (int(rng.integers(1, 6)),
                                                      int(rng.integers(1, n // 5 + 2)),
                                                      bool(rng.integers(0, 2)))):
                    t = max(n - (d - 1 + equal) * lag, 0)
                    head = x[:t]
                    close = np.count_nonzero(np.abs(head[:, None] - head[None, :]) <= radius)
                    order, reach = _sort_channel(x, lag, [radius], d, equal)[1:]
                    assert sorted(order.tolist()) == list(range(t))
                    assert 2 * int(reach.sum()) == close - t

    def test_band_leaves_out_pairs_past_the_radius(self):
        # two clusters of 10 just over the radius apart: the band holds
        # exactly the 90 pairs inside the clusters. At d = 2 the walk of
        # each diagonal also crosses from the first cluster's last
        # template (start, start + radius+) to the second cluster's: 8
        # cells past the radius on element 0 but close on element 1, so a
        # band that skipped element 0 would read 80 pairs where 72 match
        # (81 with whole blocks, which walk each diagonal over the span of
        # the block's first)
        rng = np.random.default_rng(6)
        for radius in (0.1, 0.3, 1.0):
            for start in rng.uniform(-5, 5, 50):
                x = np.repeat([start, start + radius * (1 + 1e-9)], 10)
                assert int(_sort_channel(x, 1, [radius], 1, False)[2].sum()) == 90
                want = [sum(naive_counts(naive_templates(x.tolist(), dim, 1), radius)) // 2
                        for dim in (2, 3)]
                assert want == [72, 56]
                for block in (1, estimators._BLOCK_CELLS):
                    with mock.patch.object(estimators, "_BLOCK_CELLS", block):
                        for counter in (_band_counts, _sweep_counts):
                            lo, hi = count_one(counter, x, 1, [radius], 2)
                            assert [lo[0], hi[0]] == want

    def test_mixed_call_equals_the_sweep(self):
        # a wide channel has a narrow band at this radius, a narrow one a
        # wide band; the band channel's counts must not move the others
        rng = np.random.default_rng(8)
        chans = np.stack([rng.standard_normal(1500) * s for s in (0.2, 10.0, 0.3, 5.0)])
        radii = [0.5, 0.1, 0.3]
        banded, swept, (lo, hi) = self.split(chans, radii, [1, 2, 3, 4])
        assert (banded, swept) == ([2, 4], [1, 3])
        want_lo, want_hi = np.stack([count_one(_sweep_counts, y, 1, radii, d)
                                     for d, y in enumerate(chans, 1)], axis=2)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


class TestSampen:
    def test_constant_sequence_zero(self):
        assert sampen([2.0] * 50, 2, 0.1) == 0.0

    def test_zero_is_positive_zero(self):
        # -ln(1) is -0.0, which a result file would write as "-0.0"
        assert math.copysign(1.0, sampen([2.0] * 50, 2, 0.1)) == 1.0
        assert math.copysign(1.0, sampen(np.tile([1.0, -1.0], 500), 2, 0.1,
                                         equal_template_count=True)) == 1.0

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

    @pytest.mark.parametrize("m, r_abs, lag", [(0, 0.2, 1), (-1, 0.2, 1), (2, 0.2, 0),
                                               (2, 0.2, -1), (2, float("nan"), 1)],
                             ids=["m=0", "m=-1", "lag=0", "lag=-1", "r=nan"])
    def test_invalid_parameters_refused(self, m, r_abs, lag):
        # each used to fail deep inside numpy, or to return -0.0 or None
        x = np.random.default_rng(9).standard_normal(200)
        with pytest.raises(InvalidParameterError):
            sampen(x, m, r_abs, lag)

    @pytest.mark.parametrize("x", [np.zeros((2, 150)), np.float64(1.0), np.array([])],
                             ids=["two-channels", "0-d", "empty"])
    def test_one_nonempty_channel_required(self, x):
        # two channels used to reach vemse through mse, or fail inside
        # numpy through sampen; an empty sampen input used to give None
        with pytest.raises(InvalidParameterError):
            sampen(x, 2, 0.2)
        with pytest.raises(InvalidParameterError):
            mse(x, EntropyParams(m=2, r=0.2))

    def test_one_channel_row_accepted(self):
        x = np.random.default_rng(3).standard_normal(150)
        assert sampen(x[None, :], 2, 0.2) == sampen(x, 2, 0.2)
        assert mse(x[None, :], EntropyParams()).values == mse(x, EntropyParams()).values

    def test_subnormal_radius_raises_no_warning(self):
        # a subnormal radius must give exact counts, with no RuntimeWarning
        x = np.random.default_rng(4).standard_normal(300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampen(x, 2, 1e-310) is None
            assert sampen(np.zeros(50), 2, 5e-324) == 0.0

    def test_samples_near_the_largest_float_raise_no_warning(self):
        # 1e308 - (-1e308) overflows to inf, which never matches a finite
        # radius: the counts stay exact and no RuntimeWarning leaks out
        x = np.tile([1e308, -1e308, 5e307], 40)
        chans = np.stack([x, np.roll(x, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sampen(x, 2, 1.0)
            curve = vemse(MultichannelSeries(chans), EntropyParams(m=2, scales=[1]),
                          ToleranceRule.absolute(1.0))
            counts = [count_one(counter, x, 1, [1.0], 2)
                      for counter in (_sweep_counts, _band_counts)]
        assert got == pytest.approx(naive_sampen(x.tolist(), 2, 1.0), abs=1e-12)
        assert curve.values[0] == pytest.approx(
            naive_vemse_point(chans.tolist(), 2, 1, 1.0), abs=1e-12)
        for lo, hi in counts:
            for count, dim in ((lo[0], 2), (hi[0], 3)):
                assert 2 * count == sum(naive_counts(naive_templates(x.tolist(), dim, 1), 1.0))


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

    @pytest.mark.parametrize("make", [
        lambda: EntropyParams(r=float("inf")),
        lambda: ToleranceRule.trace(1e400),
        lambda: ToleranceRule.absolute(float("inf")),
        lambda: sampen(np.arange(40.0), 2, float("inf")),
    ], ids=["params", "rule", "absolute-rule", "sampen"])
    def test_infinite_tolerance_rejected(self, make):
        with pytest.raises(InvalidParameterError, match="must be finite, got inf"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: EntropyParams(scales=[1, 2.5]),
        lambda: EntropyParams(m=2.7),
        lambda: EntropyParams(L=1.5),
        lambda: coarse_grain([1.0, 2.0, 3.0, 4.0, 5.0], 2.5),
        lambda: mmse(MultichannelSeries(np.eye(2, 40)), [2, 2], scales=[1.9]),
        lambda: mmse(MultichannelSeries(np.eye(2, 40)), [2, 2.5]),
        lambda: mmse(MultichannelSeries(np.eye(2, 40)), [2, 2], lags=[1, 1.5]),
        lambda: sampen(np.arange(40.0), 2.5, 0.2),
        lambda: sampen(np.arange(40.0), 2, 0.2, lag=1.5),
    ], ids=["scales", "m", "L", "tau", "mmse-scales", "mmse-dims", "mmse-lags", "sampen-m",
            "sampen-lag"])
    def test_fractional_counts_refused_not_truncated(self, make):
        with pytest.raises(InvalidParameterError, match="whole number"):
            make()

    def test_whole_floats_and_numpy_ints_accepted(self):
        params = EntropyParams(m=2.0, L=np.int64(1), scales=[1.0, np.int32(2)])
        assert (params.m, params.L, params.scales) == (2, 1, [1, 2])
        assert all(type(v) is int for v in [params.m, params.L] + params.scales)
        x = np.random.default_rng(2).standard_normal(200)
        assert sampen(x, 2.0, 0.2, lag=np.int64(1)) == sampen(x, 2, 0.2)
        assert coarse_grain(x, 2.0).tolist() == coarse_grain(x, 2).tolist()
        chans = MultichannelSeries(np.stack([x, x[::-1]]))
        assert mmse(chans, [2.0, np.int64(2)], lags=[1.0, 1], scales=[np.int64(1), 2.0]).values \
            == mmse(chans, [2, 2], scales=[1, 2]).values

    @pytest.mark.parametrize("value", [None, "2"])
    def test_a_count_or_real_that_is_no_number_refused(self, value):
        with pytest.raises(InvalidParameterError, match="m must be a whole number"):
            whole_number(value, "m")
        with pytest.raises(InvalidParameterError, match="r must be > 0"):
            real_number(value, "r")

    def test_an_int_past_the_float_range_is_not_finite(self):
        with pytest.raises(InvalidParameterError, match="r must be finite"):
            real_number(10 ** 400, "r")

    def test_channel_order_preserved(self):
        data = MultichannelSeries(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                  channel_labels=["a", "b"])
        assert data.channel(0).tolist() == [1.0, 2.0]
        assert data.channel_labels == ["a", "b"]


_WGN = [ModelBundle.homogeneous("wgn")]
_NAN, _INF = float("nan"), float("inf")

# (id, a call on the count, one step past its bound, the refusal of that step)
_COUNTS = [
    ("params-m", lambda v: EntropyParams(m=v), 0, "m must be >= 1"),
    ("params-L", lambda v: EntropyParams(L=v), 0, "L must be >= 1"),
    ("ar-burn-in", lambda v: ArModel((0.5,), burn_in=v), -1, "burn_in must be >= 0"),
    ("wgn-n", generate_wgn, 0, "n must be >= 1"),
    ("flicker-n", generate_flicker, 1, "n must be >= 2"),
    ("ar-n", partial(generate_ar, AR2), 0, "n must be >= 1"),
    ("sweep-n-samples", lambda v: SweepSpec("vemse", "r", [0.2], _WGN, n_samples=v), 0,
     "n_samples must be >= 1"),
    ("sweep-realizations", lambda v: SweepSpec("vemse", "r", [0.2], _WGN, realizations=v), 0,
     "realizations must be >= 1"),
    ("sweep-seed", lambda v: SweepSpec("vemse", "r", [0.2], _WGN, base_seed=v), -1,
     "base_seed must be >= 0"),
    ("timing-n-samples", lambda v: timing_benchmark("m", [2], n_samples=v, runs=1), 0,
     "n_samples must be >= 1"),
    ("timing-channels", lambda v: timing_benchmark("m", [2], channels=v, runs=1), 0,
     "channels must be >= 1"),
    ("timing-runs", lambda v: timing_benchmark("m", [2], runs=v), 0, "runs must be >= 1"),
    ("timing-seed", lambda v: timing_benchmark("m", [2], runs=1, base_seed=v), -1,
     "base_seed must be >= 0"),
]
# (id, a call on the real, one step past its bound, the refusal of that step, NaN and -inf)
_REALS = [
    ("params-r", lambda v: EntropyParams(r=v), 0.0, "r must be > 0"),
    ("rule-value", ToleranceRule.absolute, 0.0, "tolerance value must be > 0"),
    ("series-rate", lambda v: MultichannelSeries(np.eye(2, 5), sample_rate_hz=v), 0.0,
     "sample_rate_hz must be > 0"),
    ("ar-innovation-sd", lambda v: ArModel((0.5,), innovation_sd=v), 0.0,
     "innovation_sd must be > 0"),
    ("wgn-sd", lambda v: generate_wgn(10, v), 0.0, "sd must be > 0"),
    ("flicker-sd", lambda v: generate_flicker(10, v), 0.0, "sd must be > 0"),
    ("ar-target-sd", lambda v: generate_ar(AR2, 10, target_sd=v), 0.0, "target_sd must be > 0"),
    ("mix-ratio", lambda v: mix_noise(np.ones(3), np.arange(3.0), v), -0.5,
     "amplitude_ratio must be >= 0"),
    ("bundle-noise-ratio", lambda v: ModelBundle("wgn", ["wgn"], "wgn", v), -0.1,
     "noise_ratio must be >= 0"),
    ("timing-r", lambda v: timing_benchmark("m", [2], r=v, runs=1), 0.0, "r must be > 0"),
    ("noise-ratio", lambda v: noise_robustness_study(ratio=v, n_samples=50, scales=[1],
                                                     realizations=1), -0.1, "ratio must be >= 0"),
]
# (varied parameter, a good first grid point, a point past the bound, its refusal)
_GRID = [
    ("N", 50, 0, "n_samples must be >= 1"),
    ("channels", 2, 0, "channels must be >= 1"),
    ("m", 2, 0, "m must be >= 1"),
    ("scale", 1, 0, "scales must be strictly increasing and >= 1"),
]


def _timing_grid(vary, first, v):
    return timing_benchmark(vary, [first, v], n_samples=50, runs=1)


def _edge_rows():
    """(id, call, bad value, refusal) for NaN, both infinities and one step past each bound.

    A count is also given a fraction. A timing grid point that is not a
    whole number is refused by the check on all the values, in its words.
    """
    rows = []
    for site, make, past, message in _COUNTS:
        whole = message.split(" must")[0] + " must be a whole number"
        rows += [(site + "-past", make, past, message)]
        rows += [("%s-%r" % (site, v), make, v, whole) for v in (_NAN, _INF, -_INF, 2.5)]
    for site, make, past, message in _REALS:
        finite = message.split(" must")[0] + " must be finite"
        rows += [(site + "-past", make, past, message)]
        rows += [("%s-%r" % (site, v), make, v, m) for v, m in
                 [(_NAN, message), (_INF, finite), (-_INF, message)]]
    for vary, first, past, message in _GRID:
        make, whole = partial(_timing_grid, vary, first), "%s values must be whole numbers" % vary
        rows += [("timing-grid-%s-past" % vary, make, past, message)]
        rows += [("timing-grid-%s-%r" % (vary, v), make, v, whole)
                 for v in (_NAN, _INF, -_INF, 2.5)]
    return rows


def _undrawn(make, value):
    """make(value), failing the test if an ensemble draw starts."""
    with mock.patch("vemse.experiments.realize_bundle", side_effect=AssertionError("drawn")):
        make(value)


_EDGES = _edge_rows()


@pytest.mark.parametrize("make, message", [
    (lambda: ModelBundle("empty", []), "has no channels"),
    (lambda: ModelBundle("wgn", ["wgn"], "wgn", -0.1), "noise_ratio must be >= 0"),
    (lambda: ModelBundle("x", ["foo", "wgn"]), "unknown signal kind 'foo'"),
    (lambda: ModelBundle("x", ["wgn"], noise_kind="bar"), "unknown signal kind 'bar'"),
    (lambda: SweepSpec("vemse", "r", [0.2], _WGN, n_samples=0), "n_samples must be >= 1"),
    (lambda: SweepSpec("apen", "r", [0.2], _WGN), "unknown estimator"),
    (lambda: SweepSpec("vemse", "tau", [1], _WGN), "unknown swept parameter"),
    (lambda: SweepSpec("vemse", "r", [], _WGN), "sweep_values must be non-empty"),
    (lambda: SweepSpec("vemse", "r", [0.2, 0.2], _WGN), "strictly increasing"),
    (lambda: SweepSpec("vemse", "r", [0.2], _WGN, realizations=0), "realizations must be >= 1"),
    (lambda: SweepSpec("vemse", "r", [0.2], _WGN, base_seed=-1), "base_seed must be >= 0"),
    (lambda: generate_channel("pink", 10, 0), "unknown signal kind"),
    (lambda: ArModel((0.5,), innovation_sd=0.0), "innovation_sd must be > 0"),
    (lambda: ArModel((0.5,), burn_in=-1), "burn_in must be >= 0"),
    (lambda: generate_wgn(0), "n must be >= 1"),
    (lambda: generate_flicker(1), "n must be >= 2"),
    (lambda: generate_flicker(10, sd=0.0), "sd must be > 0"),
    (lambda: generate_ar(AR2, 0), "n must be >= 1"),
    (lambda: generate_ar(AR2, 10, target_sd=-1.0), "target_sd must be > 0"),
    (lambda: mix_noise(np.ones(3), np.ones(4), 0.5), "equal length"),
    (lambda: mix_noise(np.ones(3), np.ones(3), -0.5), "amplitude_ratio must be >= 0"),
    (lambda: MultichannelSeries(np.eye(2, 5), channel_labels=["a"]), "channel_labels length"),
    (lambda: MultichannelSeries(np.eye(2, 5), sample_rate_hz=0.0), "must be > 0"),
    # no channels: vemse and mmse failed in np.stack or blamed a zero trace
    *[(make, r"P, N >= 1, got shape \(0, 50\)") for make in [
        lambda: MultichannelSeries(np.empty((0, 50))),
        lambda: vemse(np.empty((0, 50)), EntropyParams(), ToleranceRule.absolute(0.2)),
        lambda: vemse(np.empty((0, 50)), EntropyParams()),
        lambda: mmse(np.empty((0, 50)), [], ToleranceRule.absolute(0.2))]],
    *[(partial(_undrawn, make, v), "^" + message) for _, make, v, message in _EDGES],
    (lambda: ToleranceRule("relative", 0.2), "unknown tolerance mode"),
    (lambda: EntropyCurve([1, 2], [0.5]), "length mismatch"),
    (lambda: resolve_tolerance(np.ones((2, 1)), ToleranceRule.trace(0.2)), ">= 2 samples"),
], ids=["bundle-no-channels", "bundle-noise-ratio", "bundle-kind", "bundle-noise-kind",
        "sweep-n-samples", "sweep-estimator", "sweep-parameter",
        "sweep-no-values", "sweep-not-increasing", "sweep-realizations", "sweep-seed",
        "channel-kind", "ar-innovation-sd", "ar-burn-in", "wgn-n", "flicker-n", "flicker-sd",
        "ar-n", "ar-target-sd", "mix-lengths", "mix-ratio", "series-labels", "series-rate",
        "series-no-channels", "vemse-no-channels-absolute", "vemse-no-channels-trace",
        "mmse-no-channels",
        *[site for site, _, _, _ in _EDGES],
        "rule-mode", "curve-lengths", "trace-one-sample"])
def test_invalid_parameters_raise(make, message):
    with pytest.raises(InvalidParameterError, match=message):
        make()
