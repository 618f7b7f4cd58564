"""Behavioural tests for the multiscale estimators."""
import warnings

import numpy as np
import pytest

from vemse import (
    DegenerateToleranceError,
    EntropyParams,
    InvalidParameterError,
    MultichannelSeries,
    ToleranceRule,
    generate_ar,
    generate_flicker,
    generate_wgn,
    mmse,
    mse,
    sampen,
    vemse,
    AR3,
)
from vemse import estimators
from oracles import naive_mmse_probs


def dual(kind_a, kind_b, n, seed=0):
    gen = {"wgn": generate_wgn, "flicker": generate_flicker}
    a = gen[kind_a](n, 1.0, (seed, 0)) if kind_a in gen else generate_ar(AR3, n, (seed, 0))
    b = gen[kind_b](n, 1.0, (seed, 1)) if kind_b in gen else generate_ar(AR3, n, (seed, 1))
    return MultichannelSeries(np.stack([a, b]))


class TestVemse:
    def test_single_channel_equals_mse_bitwise(self):
        x = generate_wgn(600, 1.0, 5)
        params = EntropyParams(m=2, r=0.2, scales=[1, 2, 3, 4])
        cv = vemse(MultichannelSeries(x), params)
        cm = mse(x, params)
        assert cv.values == cm.values
        assert cv.probs == cm.probs

    def test_single_channel_equals_sampen_per_scale(self):
        from vemse import coarse_grain, resolve_tolerance
        x = generate_wgn(500, 1.0, 9)
        params = EntropyParams(m=2, r=0.2, scales=[1, 2, 3])
        curve = vemse(MultichannelSeries(x), params)
        radius = resolve_tolerance(x[None, :], ToleranceRule.trace(0.2))
        for tau, value in zip(curve.scales, curve.values):
            assert value == sampen(coarse_grain(x, tau), 2, radius)

    def test_identical_constant_channels_zero(self):
        data = MultichannelSeries(np.ones((2, 100)))
        params = EntropyParams(m=2, r=0.5, scales=[1, 2, 3])
        curve = vemse(data, params, ToleranceRule.absolute(0.5))
        assert curve.values == [0.0, 0.0, 0.0]

    def test_constant_channels_trace_rule_degenerate(self):
        data = MultichannelSeries(np.ones((2, 100)))
        with pytest.raises(DegenerateToleranceError):
            vemse(data, EntropyParams(m=2, r=0.15, scales=[1]))

    def test_duplicate_channel_swap_invariant(self):
        x = generate_wgn(800, 1.0, 2)
        y = generate_ar(AR3, 800, 3)
        params = EntropyParams(m=2, r=0.15, scales=[1, 2])
        a = vemse(MultichannelSeries(np.stack([y, x, x])), params)
        b = vemse(MultichannelSeries(np.stack([y, x, x.copy()])), params)
        assert a.values == b.values

    def test_translation_invariance(self):
        data = dual("wgn", "ar3", 700, seed=4)
        shifted = MultichannelSeries(data.channels + 37.5)
        params = EntropyParams(m=2, r=0.15, scales=[1, 2, 3])
        a = vemse(data, params)
        b = vemse(shifted, params)
        for va, vb in zip(a.values, b.values):
            assert va is not None and vb is not None
            assert va == pytest.approx(vb, abs=1e-9)

    def test_infeasible_scale_undefined_not_crash(self):
        data = dual("wgn", "wgn", 60, seed=1)
        params = EntropyParams(m=2, r=0.15, scales=[1, 30])
        curve = vemse(data, params)
        assert curve.values[1] is None
        assert curve.probs[1] is None

    def test_probs_attached_and_consistent(self):
        data = dual("wgn", "ar3", 500, seed=6)
        params = EntropyParams(m=2, r=0.15, scales=[1])
        curve = vemse(data, params)
        phi_lo, phi_hi = curve.probs[0]
        assert curve.values[0] == pytest.approx(-np.log(phi_hi / phi_lo))

    def test_per_scale_tolerance_differs(self):
        data = dual("wgn", "wgn", 1000, seed=8)
        params = EntropyParams(m=2, r=0.15, scales=[5])
        fixed = vemse(data, params).values[0]
        per_scale = vemse(data, params, per_scale_tolerance=True).values[0]
        # coarse graining shrinks the variance, so the radii differ
        assert fixed != per_scale

    def test_per_scale_tolerance_constant_scale_undefined(self):
        # alternating samples average to a constant at scale 2 only
        data = MultichannelSeries(np.tile([1.0, -1.0], 200))
        params = EntropyParams(m=2, r=0.15, scales=[1, 2, 3])
        curve = vemse(data, params, per_scale_tolerance=True)
        assert curve.values[1] is None and curve.probs[1] is None
        assert curve.values[0] is not None and curve.values[2] is not None

    def test_normalize_flag(self):
        data = MultichannelSeries(np.stack([
            3.0 * generate_wgn(800, 1.0, 1), generate_wgn(800, 1.0, 2)]))
        params = EntropyParams(m=2, r=0.15, scales=[1])
        raw = vemse(data, params).values[0]
        norm = vemse(data, params, normalize=True).values[0]
        assert raw != norm


class TestOneSample:
    """A one-sample record is z-scored like a constant channel, with no warning."""

    @pytest.mark.parametrize("estimate", [
        lambda data, rule: vemse(data, EntropyParams(), rule, normalize=True),
        lambda data, rule: mmse(data, [2, 2], rule),
    ], ids=["vemse-normalize", "mmse"])
    def test_trace_rule_refused_absolute_rule_undefined(self, estimate):
        data = MultichannelSeries(np.array([[1.0], [2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=">= 2 samples per channel"):
                estimate(data, ToleranceRule.trace(0.15))
            curve = estimate(data, ToleranceRule.absolute(0.5))
        assert curve.values == [None] and curve.probs == [None]

    def test_two_samples_and_more_scale_by_the_sample_sd(self):
        chans = np.array([[1.0, 4.0, 2.5], [-3.0, 0.5, 8.0]])
        for n in (2, 3):
            want = (chans[:, :n] - chans[:, :n].mean(axis=1, keepdims=True)) \
                / chans[:, :n].std(axis=1, ddof=1, keepdims=True)
            assert estimators._zscore(chans[:, :n]).tobytes() == want.tobytes()


class TestMse:
    def test_scale_one_matches_sampen(self):
        x = generate_wgn(400, 1.0, 12)
        params = EntropyParams(m=2, r=0.2, scales=[1])
        radius = 0.2 * np.var(x, ddof=1)
        assert mse(x, params).values[0] == sampen(x, 2, radius)

    def test_wgn_curve_decreasing_trend(self):
        # ensemble mean over a few seeds: white noise loses complexity
        # as the scale grows
        params = EntropyParams(m=2, r=0.15, scales=list(range(1, 21)))
        curves = []
        for seed in range(5):
            x = generate_wgn(3000, 1.0, (100, seed))
            curves.append(mse(x, params).values)
        mean = np.mean(np.array(curves, dtype=float), axis=0)
        assert mean[0] > mean[-1]
        assert np.all(np.diff(mean) < 0.05)  # monotone trend, small jitter allowed

    def test_flicker_curve_stays_level(self):
        params = EntropyParams(m=2, r=0.15, scales=list(range(1, 21)))
        curves = []
        for seed in range(5):
            x = generate_flicker(3000, 1.0, (101, seed))
            curves.append(mse(x, params).values)
        mean = np.mean(np.array(curves, dtype=float), axis=0)
        # stays within a band rather than decaying like white noise
        assert mean[-1] > 0.5 * mean[0]


class TestMmse:
    def test_two_constant_channels_zero_with_absolute_rule(self):
        data = MultichannelSeries(np.ones((2, 80)))
        curve = mmse(data, [2, 2], ToleranceRule.absolute(0.3), scales=[1, 2])
        assert curve.values == [0.0, 0.0]

    def test_constant_channels_trace_rule_degenerate(self):
        data = MultichannelSeries(np.ones((2, 80)))
        with pytest.raises(DegenerateToleranceError):
            mmse(data, [2, 2], ToleranceRule.trace(0.15), scales=[1])

    def test_every_scale_checked_before_any_count(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimators, "_cdv_probs", lambda *args: calls.append(args))
        data = MultichannelSeries(np.random.default_rng(0).standard_normal((2, 40)))
        with pytest.raises(InvalidParameterError,
                           match="largest scale 41 exceeds data length 40"):
            mmse(data, [2, 2], scales=range(1, 42))
        assert calls == []

    @pytest.mark.parametrize("dims, lags, message", [
        ([2], None, "dims must list a positive dimension per channel"),
        ([2, 0], None, "dims must list a positive dimension per channel"),
        ([2, 2], [1, 0], "lags must list a positive lag per channel"),
        ([2, 2], [1], "lags must list a positive lag per channel"),
    ], ids=["one-dim-too-few", "zero-dim", "zero-lag", "one-lag-too-few"])
    def test_dims_and_lags_per_channel(self, dims, lags, message):
        data = MultichannelSeries(np.random.default_rng(0).standard_normal((2, 40)))
        with pytest.raises(InvalidParameterError, match=message):
            mmse(data, dims, lags=lags)

    @pytest.mark.parametrize("scales", [[], [3, 1], [2, 2]])
    def test_same_scale_refusals_as_vemse(self, scales):
        data = MultichannelSeries(np.random.default_rng(0).standard_normal((2, 40)))
        with pytest.raises(InvalidParameterError) as from_vemse:
            vemse(data, EntropyParams(scales=scales))
        with pytest.raises(InvalidParameterError) as from_mmse:
            mmse(data, [2, 2], scales=scales)
        assert str(from_mmse.value) == str(from_vemse.value)

    def test_single_channel_close_to_sampen_on_normalized_data(self):
        # the composite-vector template count differs from the univariate
        # convention by one lag, so agreement is asymptotic, not exact
        x = generate_wgn(4000, 1.0, 17)
        z = (x - x.mean()) / x.std(ddof=1)
        got = mmse(MultichannelSeries(x), [2], ToleranceRule.trace(0.2),
                   scales=[1]).values[0]
        want = sampen(z, 2, 0.2 * np.var(z, ddof=1))
        assert got == pytest.approx(want, abs=5e-3)

    def test_scale_invariance_of_normalization(self):
        a = generate_wgn(900, 1.0, 21)
        b = generate_ar(AR3, 900, 22)
        data = MultichannelSeries(np.stack([a, b]))
        scaled = MultichannelSeries(np.stack([10 * a, 0.3 * b]))
        rule = ToleranceRule.trace(0.15)
        va = mmse(data, [2, 2], rule, scales=[1, 2]).values
        vb = mmse(scaled, [2, 2], rule, scales=[1, 2]).values
        for x1, x2 in zip(va, vb):
            assert x1 == pytest.approx(x2, abs=1e-9)

    def test_undefined_on_short_data(self):
        data = MultichannelSeries(np.random.default_rng(0).standard_normal((2, 8)))
        curve = mmse(data, [3, 3], ToleranceRule.trace(0.15), scales=[4])
        assert curve.values == [None]

    def test_one_bumped_pass_with_one_template_is_undefined_without_a_listing(self, monkeypatch):
        # at scale 2 the 8 samples leave 4: the base pass (dims 2, 1) has 2
        # templates, channel 0's bumped pass (dims 3, 1) has 1
        listed = []
        real = estimators._tile_pairs

        def spy(cols, a, b, *args):
            listed.append((a, b))
            return real(cols, a, b, *args)

        monkeypatch.setattr(estimators, "_tile_pairs", spy)
        chans = np.random.default_rng(3).standard_normal((2, 8))
        curve = mmse(MultichannelSeries(chans), [2, 1], ToleranceRule.trace(5.0), scales=[2])
        assert curve.probs == [None] and curve.values == [None]
        assert listed == []
        assert naive_mmse_probs([list(c) for c in chans], [2, 1], 5.0, [1, 1], [2]) == [None]
        # the spy sees the listings of a feasible scale
        mmse(MultichannelSeries(chans), [2, 1], ToleranceRule.trace(5.0), scales=[1])
        assert listed

    def test_inclusive_ties_at_every_pass(self):
        # two-level channels with equal level counts z-score to the same
        # +-h, so every composite distance is 0 or exactly 2h, the radius:
        # all T(T-1)/2 pairs match at the base and at every bumped pass
        rng = np.random.default_rng(5)
        chans = np.stack([rng.permutation(np.repeat([0.0, 1.0], 20)) for _ in range(3)])
        z = (chans - chans.mean(axis=1, keepdims=True)) / chans.std(axis=1, ddof=1, keepdims=True)
        radius = float(z.max() - z.min())
        assert set(np.unique(np.abs(z[:, :, None] - z[:, None, :]))) == {0.0, radius}
        data = MultichannelSeries(chans)
        dims, lags = [2, 1, 3], [1, 2, 1]
        curve = mmse(data, dims, ToleranceRule.absolute(radius), lags=lags)
        assert curve.probs == [(1.0, 1.0)] and curve.values == [0.0]
        # a radius one step lower keeps only the pairs at distance 0
        below = mmse(data, dims, ToleranceRule.absolute(np.nextafter(radius, 0)), lags=lags)
        assert below.probs[0][0] < 1.0 and below.probs[0][1] < 1.0


class TestNegativeValues:
    def test_negative_value_reported_not_clamped(self):
        # engineered so the incremented pass matches more often than the
        # base pass relative to its smaller template count
        x = np.random.default_rng(47).standard_normal(14)
        v = sampen(x, 3, 2.0)
        assert v is not None and v < 0
        # and the classic convention cannot go negative here
        v_eq = sampen(x, 3, 2.0, equal_template_count=True)
        assert v_eq is None or v_eq >= 0
