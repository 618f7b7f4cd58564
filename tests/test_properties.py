"""Property-based checks on the shared machinery."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vemse import coarse_grain, shuffle_surrogate
from vemse.estimators import _pair_counts

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@given(st.lists(finite, min_size=1, max_size=60), st.integers(1, 8))
def test_coarse_grain_window_means(xs, tau):
    if tau > len(xs):
        tau = len(xs)
    got = coarse_grain(xs, tau)
    assert got.size == len(xs) // tau
    for j, v in enumerate(got):
        assert v == np.mean(xs[j * tau: (j + 1) * tau])


@given(st.lists(finite, min_size=1, max_size=60))
def test_coarse_grain_scale_one_identity(xs):
    assert coarse_grain(xs, 1).tolist() == xs


@given(st.lists(finite, min_size=1, max_size=100), st.integers(0, 2 ** 32 - 1))
def test_shuffle_preserves_multiset(xs, seed):
    assert sorted(shuffle_surrogate(xs, seed).tolist()) == sorted(xs)


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.floats(0.05, 0.5), st.floats(0.5, 3.0))
def test_counts_monotone_in_radius(seed, r_small, factor):
    chans = np.random.default_rng(seed).standard_normal((2, 40))
    small = [rows[0] for rows in _pair_counts(chans, 1, [r_small], [2, 3])]
    large = [rows[0] for rows in
             _pair_counts(chans, 1, [r_small * max(factor, 1.0)], [2, 3])]
    assert np.all(large[0] >= small[0]) and np.all(large[1] >= small[1])


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.floats(-50.0, 50.0))
def test_match_counts_translation_invariant(seed, shift):
    chans = np.random.default_rng(seed).standard_normal((2, 40))
    t0 = [rows[0] for rows in _pair_counts(chans, 1, [0.3], [2, 3])]
    t1 = [rows[0] for rows in _pair_counts(chans + shift, 1, [0.3], [2, 3])]
    assert all(np.array_equal(a, b) for a, b in zip(t0, t1))
