"""Signal generators and surrogate transforms."""
import numpy as np
import pytest

from vemse import (
    AR1,
    AR2,
    AR3,
    ArModel,
    InvalidParameterError,
    generate_ar,
    generate_flicker,
    generate_wgn,
    mix_noise,
    shuffle_surrogate,
)


def lag1_autocorr(x):
    x = x - x.mean()
    return float(np.dot(x[:-1], x[1:]) / np.dot(x, x))


class TestWgn:
    def test_deterministic(self):
        a = generate_wgn(5, 1.0, 42)
        b = generate_wgn(5, 1.0, 42)
        assert np.array_equal(a, b)

    def test_sd_contract(self):
        x = generate_wgn(1000, 2.5, 3)
        assert x.std(ddof=1) == pytest.approx(2.5, abs=1e-9)

    def test_uncorrelated(self):
        x = generate_wgn(100_000, 1.0, 7)
        assert abs(lag1_autocorr(x)) < 0.01

    def test_zero_sd_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_wgn(10, 0.0, 1)

    def test_one_sample_is_the_raw_draw(self):
        # no sample SD to rescale to
        raw = np.random.default_rng(3).standard_normal(1)
        assert generate_wgn(1, 5.0, 3).tolist() == raw.tolist()


class TestFlicker:
    def test_deterministic(self):
        assert np.array_equal(generate_flicker(64, 1.0, 5), generate_flicker(64, 1.0, 5))

    def test_sd_contract(self):
        x = generate_flicker(5000, 1.0, 9)
        assert x.std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    def test_spectral_slope(self):
        x = generate_flicker(2 ** 16, 1.0, 11)
        spec = np.abs(np.fft.rfft(x)) ** 2
        k = np.arange(1, spec.size)
        # central two decades of the periodogram
        sel = (k >= 30) & (k <= 3000)
        slope = np.polyfit(np.log10(k[sel]), np.log10(spec[1:][sel]), 1)[0]
        assert -1.2 < slope < -0.8


class TestAr:
    def test_coefficient_table(self):
        assert AR1.coefficients == (0.5,)
        assert AR2.coefficients == (0.5, 0.25)
        assert AR3.coefficients == (0.5, 0.25, 0.125)

    def test_nonstationary_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArModel((1.1,))

    def test_ar1_lag1_autocorr(self):
        x = generate_ar(AR1, 100_000, 13)
        assert lag1_autocorr(x) == pytest.approx(0.5, abs=0.02)

    def test_ar2_yule_walker(self):
        # rho_1 = a1 / (1 - a2) = 2/3
        x = generate_ar(AR2, 100_000, 17)
        assert lag1_autocorr(x) == pytest.approx(2 / 3, abs=0.02)

    def test_degenerate_model_is_white(self):
        x = generate_ar(ArModel(()), 50_000, 19)
        assert abs(lag1_autocorr(x)) < 0.02
        assert x.std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    def test_sd_contract(self):
        x = generate_ar(AR3, 2000, 23)
        assert x.std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("model", [AR1, AR2, AR3, ArModel((0.9, -0.2, 0.05, 0.01))])
    def test_bit_identical_to_lfilter(self, model):
        from scipy.signal import lfilter

        for seed in range(20):
            eps = np.random.default_rng(seed).standard_normal(5000 + model.burn_in)
            denom = np.concatenate(([1.0], -np.asarray(model.coefficients)))
            want = lfilter([1.0], denom, eps)[model.burn_in:]
            want = want * (1.0 / want.std(ddof=1))
            got = generate_ar(model, 5000, seed)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSurrogate:
    def test_multiset_preserved(self):
        x = generate_ar(AR3, 500, 1)
        s = shuffle_surrogate(x, 2)
        assert np.array_equal(np.sort(x), np.sort(s))

    def test_single_element(self):
        assert shuffle_surrogate([3.0], 0).tolist() == [3.0]

    def test_deterministic(self):
        x = generate_wgn(100, 1.0, 1)
        assert np.array_equal(shuffle_surrogate(x, 9), shuffle_surrogate(x, 9))

    def test_destroys_autocorrelation(self):
        x = generate_ar(AR3, 10_000, 29)
        s = shuffle_surrogate(x, 30)
        assert abs(lag1_autocorr(s)) < 0.03


class TestMixNoise:
    def test_ratio_zero_identity(self):
        x = generate_wgn(100, 1.0, 1)
        assert np.array_equal(mix_noise(x, generate_wgn(100, 1.0, 2), 0.0), x)

    def test_unit_sd_algebra(self):
        x = generate_wgn(300, 1.0, 3)
        n = generate_wgn(300, 1.0, 4)
        assert np.allclose(mix_noise(x, n, 0.2), x + 0.2 * n, atol=1e-12)

    def test_self_mix(self):
        x = generate_wgn(200, 1.0, 5)
        assert np.allclose(mix_noise(x, x, 1.0), 2 * x, atol=1e-12)

    def test_zero_sd_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            mix_noise(generate_wgn(50, 1.0, 1), np.ones(50), 0.5)


class TestStreamIndependence:
    def test_distinct_seeds_uncorrelated(self):
        n = 10_000
        a = generate_wgn(n, 1.0, (0, 0, 0))
        b = generate_wgn(n, 1.0, (0, 0, 1))
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 3 / np.sqrt(n)
