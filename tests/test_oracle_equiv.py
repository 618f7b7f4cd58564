"""Estimators vs the independent brute-force oracles at small N."""
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vemse import (
    EntropyParams,
    MultichannelSeries,
    ToleranceRule,
    coarse_grain,
    mmse,
    sampen,
    vemse,
)
from vemse import estimators
from vemse.estimators import _curve_points, _pair_counts
from oracles import (
    naive_coarse_grain,
    naive_counts,
    naive_mmse,
    naive_phi,
    naive_sampen,
    naive_templates,
    naive_vemse,
)


def test_coarse_grain_matches_naive():
    rng = np.random.default_rng(0)
    for tau in (1, 2, 3, 7):
        x = rng.standard_normal(50)
        assert np.allclose(coarse_grain(x, tau), naive_coarse_grain(list(x), tau),
                           atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_sampen_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 200))
    m = int(rng.integers(1, 4))
    lag = int(rng.integers(1, 3))
    x = rng.standard_normal(n)
    radius = 0.2 * np.var(x, ddof=1)
    got = sampen(x, m, radius, lag)
    want = naive_sampen(list(x), m, radius, lag)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_vemse_matches_naive(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(60, 220))
    m = int(rng.integers(1, 4))
    lag = int(rng.integers(1, 3))
    chans = rng.standard_normal((2, n))
    scales = [1, 2, 3]
    params = EntropyParams(m=m, r=0.2, L=lag, scales=scales)
    got = vemse(MultichannelSeries(chans), params).values
    want = naive_vemse([list(c) for c in chans], m, 0.2, lag, scales)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g == pytest.approx(w, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_mmse_matches_naive(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(60, 220))
    m = int(rng.integers(1, 3))
    chans = rng.standard_normal((2, n))
    scales = [1, 2]
    got = mmse(MultichannelSeries(chans), [m, m], ToleranceRule.trace(0.2),
               scales=scales).values
    want = naive_mmse([list(c) for c in chans], [m, m], 0.2, [1, 1], scales)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g == pytest.approx(w, abs=1e-12)


def test_undefinedness_monotone_in_dimension():
    # whenever the base-dimension probability is zero, the incremented
    # one is too; asserted on the oracle over many small draws
    rng = np.random.default_rng(42)
    seen_zero = 0
    for _ in range(200):
        n = int(rng.integers(10, 25))
        x = list(10.0 * rng.standard_normal(n))
        for m in (1, 2):
            lo = naive_phi(x, m, 1, 0.05)
            hi = naive_phi(x, m + 1, 1, 0.05)
            if lo == 0 and hi is not None:
                seen_zero += 1
                assert hi == 0
    assert seen_zero > 0  # the property was actually exercised


@settings(max_examples=150, deadline=None)
@given(grid=st.booleans(), p=st.integers(1, 4), m=st.integers(1, 3), lag=st.integers(1, 3),
       extra=st.integers(-1, 30), equal=st.booleans(), block=st.sampled_from([1, 7, 64, 1 << 15]),
       data=st.data())
def test_pair_count_kernel_matches_naive_exactly(grid, p, m, lag, extra, equal, block, data):
    # Tie-heavy data puts many distances exactly on the radius: 0.1-grid
    # values (differences one rounding step off the grid radius) or
    # integers with an integer radius. extra = 0 leaves the last channel
    # exactly two templates in its second pass; extra = -1 leaves one.
    # Small blocks split the diagonals over many sweep steps. The radii
    # come in any order, repeats included; row k of the counts must equal
    # a call at radii[k] alone and the naive double loop.
    dims = [m + c for c in range(p)]
    n = dims[-1] * lag + 2 + extra
    levels = st.integers(-4, 4) if grid else st.integers(-3, 3)
    ints = data.draw(st.lists(st.lists(levels, min_size=n, max_size=n), min_size=p, max_size=p))
    chans = np.array(ints) * 0.1 if grid else np.array(ints, dtype=float)
    radii = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3] if grid else [1.0, 2.0]),
                               min_size=1, max_size=4))
    caps = [n - d * lag for d in dims] if equal else [None] * p

    with mock.patch.object(estimators, "_BLOCK_CELLS", block):
        lo, hi = _pair_counts(chans, lag, radii, dims, caps)
        points = _curve_points(chans, m, lag, radii, equal)
        singles = [_pair_counts(chans, lag, [radius], dims, caps) for radius in radii]
    assert lo.shape == hi.shape == (len(radii), p)
    assert len(points) == len(radii)
    for k, radius in enumerate(radii):
        assert np.array_equal(lo[k], singles[k][0][0])
        assert np.array_equal(hi[k], singles[k][1][0])
        want = [0.0, 0.0]
        for c, d in enumerate(dims):
            y = chans[c].tolist()
            for j, (count, dim, cap) in enumerate(((lo[k][c], d, caps[c]),
                                                   (hi[k][c], d + 1, None))):
                templates = naive_templates(y, dim, lag)[:cap]
                t = len(templates)
                matches = sum(naive_counts(templates, radius))
                assert 2 * count == matches
                if t >= 2:
                    phi = float(Fraction(matches, t * (t - 1)))
                    assert phi == pytest.approx(naive_phi(y, dim, lag, radius, cap), abs=1e-12)
                    want[j] += phi

        if extra < 0:
            assert points[k] is None
            assert naive_phi(chans[-1].tolist(), dims[-1] + 1, lag, radius) is None
        else:
            assert points[k] == tuple(want)
