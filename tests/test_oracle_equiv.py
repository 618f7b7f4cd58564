"""Estimators vs the independent brute-force oracles at small N."""
import math
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
from vemse.estimators import (_band_counts, _cdv_probs, _curve_points, _pair_counts, _prob,
                              _sort_channel, _sweep_counts)
from oracles import (
    naive_cdv_pairs,
    naive_coarse_grain,
    naive_counts,
    naive_mmse,
    naive_mmse_probs,
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


def _assert_mmse_matches_naive(curve, want):
    assert len(curve.probs) == len(want)
    for got, pr in zip(curve.probs, want):
        if pr is None:
            assert got is None
        else:
            assert got == pytest.approx(pr, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_mmse_probs_match_naive_on_unequal_dims_and_lags(seed):
    # P = 1..4 with unequal dims (1-3) and lags (1-2) on 0.1-grid data,
    # where many composite distances tie; short records leave the later
    # scales with too few templates for some pass
    rng = np.random.default_rng(300 + seed)
    p = 1 + seed % 4
    dims = [int(d) for d in rng.integers(1, 4, p)]
    lags = [int(l) for l in rng.integers(1, 3, p)]
    n = int(rng.integers(30, 90))
    chans = rng.integers(-4, 5, (p, n)) * 0.1
    scales = [1, 2, 5]
    want = naive_mmse_probs([list(c) for c in chans], dims, 0.2, lags, scales)
    # tiles of 1, 2, 3 and 5 leave ragged last tiles and small self-tile
    # triangles; seed 0 (dims [1]) has fewer composite coordinates than a
    # listing tests on every cell (_DENSE), seed 8 (dims [2]) as many
    for tile in (1, 2, 3, 5, estimators._TILE):
        with mock.patch.object(estimators, "_TILE", tile):
            got = mmse(MultichannelSeries(chans), dims, ToleranceRule.trace(0.2), lags=lags,
                       scales=scales)
        _assert_mmse_matches_naive(got, want)


def test_mmse_pair_walk_blocks_agree():
    # a tile of 1 makes every pair a pair between two tiles; a tile of 7
    # leaves a short last tile, so t_bump falls inside a tile
    rng = np.random.default_rng(7)
    chans = rng.integers(-4, 5, (3, 150)) * 0.1
    dims, lags, scales = [2, 1, 3], [1, 2, 1], [1, 2]
    data = MultichannelSeries(chans)
    curves = []
    for tile in (1, 7, estimators._TILE):
        with mock.patch.object(estimators, "_TILE", tile):
            curves.append(mmse(data, dims, ToleranceRule.trace(0.3), lags=lags, scales=scales))
    assert curves[0].probs == curves[1].probs == curves[2].probs
    assert curves[0].values == curves[1].values == curves[2].values
    assert None not in curves[0].probs
    _assert_mmse_matches_naive(
        curves[0], naive_mmse_probs([list(c) for c in chans], dims, 0.3, lags, scales))


def _unit_grid_channel(rng, n, half):
    """n shuffled multiples of 0.25 with mean exactly 0 and sample variance exactly 1.

    Pairs +-k/4 give the zero mean, and the rest are zeros; k is drawn
    until the squares sum to n - 1. z-scoring such a channel changes no
    sample, so every Chebyshev distance between its templates is exact.
    """
    while True:
        k = rng.integers(-7, 8, half)
        if k @ k == 8 * (n - 1):
            return rng.permutation(np.concatenate([k, -k, np.zeros(n - 2 * half)]) / 4)


def test_mmse_counts_exact_ties_on_both_listings():
    # a radius of one grid step is met exactly by many pairs, within a
    # tile and between tiles; the inclusive boundary must count them on
    # both listings, at every tiling
    rng = np.random.default_rng(12)
    chans = np.stack([_unit_grid_channel(rng, 71, 30) for _ in range(2)])
    assert np.all(chans.mean(axis=1) == 0) and np.all(chans.std(axis=1, ddof=1) == 1)
    data = MultichannelSeries(chans)
    dims, scales, step = [2, 1], [1, 2], 0.25
    # the z-scored trace is exactly 2, so the oracle's radius is the step.
    # The oracle sums per-template fractions, a few ulps off the exact
    # ratios, so it is met at 1e-12; the brute-force pair counts, put
    # through mmse's own ratio, are met with ==.
    want = naive_mmse_probs([list(c) for c in chans], dims, step / 2, [1, 1], scales)
    exact = []
    for tau in scales:
        cg = [naive_coarse_grain(list(c), tau) for c in chans]
        t, base = naive_cdv_pairs(cg, dims, [1, 1], step)
        phis = []
        for c in range(len(dims)):
            t_c, pairs = naive_cdv_pairs(cg, [d + (k == c) for k, d in enumerate(dims)], [1, 1],
                                         step)
            phis.append(int(2 * pairs) / (t_c * (t_c - 1)))
        exact.append((int(2 * base) / (t * (t - 1)), math.fsum(phis) / len(dims)))
    for tile in (1, 7, estimators._TILE):
        with mock.patch.object(estimators, "_TILE", tile):
            curve = mmse(data, dims, ToleranceRule.absolute(step), scales=scales)
        assert [tuple(pr) for pr in curve.probs] == exact
        _assert_mmse_matches_naive(curve, want)
    # the ties are there: a radius one ulp short loses some at every scale
    short = mmse(data, dims, ToleranceRule.absolute(np.nextafter(step, 0)), scales=scales)
    assert all(g[0] > s[0] for g, s in zip(exact, short.probs))


def _naive_walk_counts(chans, dims, lags, radius):
    """(pairs, templates) of the base pass and of each bumped pass, by brute force."""
    cg = [list(c) for c in chans]
    passes = [dims] + [[d + (k == c) for k, d in enumerate(dims)] for c in range(len(dims))]
    return [naive_cdv_pairs(cg, ds, lags, radius)[::-1] for ds in passes]


def _counted(prob_spy):
    """The (pairs, templates) that _cdv_probs put through _prob, base pass first."""
    return [tuple(call.args) for call in prob_spy.call_args_list]


# Two channels in units of 1/8, each with mean 0 and sample variance 1
# exactly, so z-scoring changes no sample. Channel 0's first 42 samples,
# the composite templates' first coordinates at dims [1, 2], read sorted:
#   -14 -14 -12 -6 -6 -6 -6 | -5 -5 -4 -4 -4 -3 -3 | -1 -1 -1 -1 0 0 0 |
#     0  0  0  1  1  1  1 |  3  3  4  4  4  5  5 |  6  6  6  6 12 14 14
_SKIP_EDGE = np.array([
    [0, 4, -12, 1, -1, 1, -5, 1, 0, -3, 0, 1, 14, -6, 4, 5, -1, 0, 3, 6, -3, 5,
     14, 6, -4, 6, 0, -6, -6, 6, -1, 3, -14, -4, 12, -1, 0, -4, -6, -14, 4, -5, 24, -24],
    [14, -5, 6, 4, 6, 4, -6, -14, -1, -3, -4, 3, 1, -6, 1, 12, -24, 0, 4, -6, 6, -4,
     1, -5, 1, -3, 6, -12, 0, -14, -1, -4, -6, 5, 3, 14, 24, 0, -1, 0, 5, -1, 0, 0],
]) / 8


def test_mmse_tile_skip_is_exact_at_its_edge():
    # at a radius of 1/8 and tiles of 7 (the bars above), two tile
    # boundaries are a gap of exactly the radius, which must be listed,
    # two are the radius plus a step, which are skipped, and one splits a
    # run of zeros; at tiles of 1 every sorted step is a boundary
    chans, dims, radius = _SKIP_EDGE, [1, 2], 1 / 8
    assert np.all(chans.mean(axis=1) == 0) and np.all(chans.std(axis=1, ddof=1) == 1)
    # bumped pass 1 has 41 templates; template 41 matches template 37 at
    # the base dims and on the added coordinate, and sorts before it, so
    # every listing yields that pair as i = 41 > j = 37, outside the pass
    y0, y1 = chans

    def bumped_template(i):
        return np.array([y0[i], y1[i], y1[i + 1], y1[i + 2]])

    assert y0[41] < y0[37]
    assert np.max(np.abs(bumped_template(41) - bumped_template(37))) <= radius
    want = _naive_walk_counts(chans, dims, [1, 1], radius)
    assert want[2][1] == 41 < want[0][1] == 42
    naive = naive_mmse_probs([list(c) for c in chans], dims, radius / 2, [1, 1], [1])
    for tile in (1, 7, estimators._TILE):
        with mock.patch.object(estimators, "_TILE", tile), \
                mock.patch.object(estimators, "_prob", side_effect=estimators._prob) as prob:
            curve = mmse(MultichannelSeries(chans), dims, ToleranceRule.absolute(radius))
        assert _counted(prob) == want
        _assert_mmse_matches_naive(curve, naive)


@pytest.mark.parametrize("tile", [1, 8])
def test_mmse_walk_lists_no_tile_pair_across_a_gap_past_the_radius(tile):
    # the first coordinates form two clusters of 40 templates, at -1 and
    # +1, each 0.6 wide: 1.4 apart, against a radius of 0.5, so no
    # listing may pair a tile of one cluster with a tile of the other
    rng = np.random.default_rng(11)
    first = rng.permutation(np.repeat([-1.0, 1.0], 40)) + rng.uniform(-0.3, 0.3, 80)
    chans = np.stack([np.append(first, rng.standard_normal(2)), 0.5 * rng.standard_normal(82)])
    dims, lags, radius = [2, 1], [1, 1], 0.5
    listed = []
    real = estimators._tile_pairs

    def spy(cols, a, b, *args):
        if a != b:
            listed.append(np.concatenate([cols[0][a], cols[0][b]]))
        return real(cols, a, b, *args)

    with mock.patch.object(estimators, "_tile_pairs", spy), \
            mock.patch.object(estimators, "_TILE", tile), \
            mock.patch.object(estimators, "_prob", side_effect=estimators._prob) as prob:
        estimators._cdv_probs(chans, dims, lags, radius)
    assert listed  # tiles within a cluster are still listed
    assert all(np.all(rows < 0) or np.all(rows > 0) for rows in listed)
    assert _counted(prob) == _naive_walk_counts(chans, dims, lags, radius)


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


def counts(y, lag, radii, d, equal):
    """(band, sweep): one channel's (lo, hi) from each counter, fed the channel's one sort."""
    chan = _sort_channel(y, lag, radii, d, equal)
    return (_band_counts(y, lag, radii, d, chan),
            _sweep_counts(y, lag, radii, d, chan))


@settings(max_examples=150, deadline=None)
@given(grid=st.booleans(), p=st.integers(1, 4), m=st.integers(1, 3), lag=st.integers(1, 3),
       extra=st.integers(-1, 30), equal=st.booleans(), block=st.sampled_from([1, 7, 64, 1 << 15]),
       data=st.data())
def test_pair_count_kernel_matches_naive_exactly(grid, p, m, lag, extra, equal, block, data):
    # Tie-heavy data puts many distances exactly on the radius: 0.1-grid
    # values (differences one rounding step off the grid radius) or
    # integers with an integer radius. extra = 0 leaves the last channel
    # exactly two templates in its second pass; extra = -1 leaves one.
    # Small blocks split the diagonals over many steps of both counters.
    # The radii come in any order, repeats included. The sweep and the
    # band counter on each channel and _pair_counts, which chooses between
    # them, must all give the naive double loop's counts, and row k must
    # equal a call at radii[k] alone.
    dims = [m + c for c in range(p)]
    n = dims[-1] * lag + 2 + extra
    levels = st.integers(-4, 4) if grid else st.integers(-3, 3)
    ints = data.draw(st.lists(st.lists(levels, min_size=n, max_size=n), min_size=p, max_size=p))
    chans = np.array(ints) * 0.1 if grid else np.array(ints, dtype=float)
    radii = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5] if grid else [1.0, 2.0]),
                               min_size=1, max_size=4))
    caps = [n - d * lag for d in dims] if equal else [None] * p

    with mock.patch.object(estimators, "_BLOCK_CELLS", block):
        lo, hi = _pair_counts(chans, lag, radii, dims, equal)
        sorts = [_sort_channel(chans[c], lag, radii, d, equal) for c, d in enumerate(dims)]
        swept = [_sweep_counts(chans[c], lag, radii, d, sorts[c]) for c, d in enumerate(dims)]
        banded = [_band_counts(chans[c], lag, radii, d, sorts[c]) for c, d in enumerate(dims)]
        points = _curve_points(chans, m, lag, radii, equal)
        singles = [_pair_counts(chans, lag, [radius], dims, equal) for radius in radii]
    assert lo.shape == hi.shape == (len(radii), p)
    assert all(b.shape == (len(radii),) for counts in swept + banded for b in counts)
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
                assert 2 * count == 2 * swept[c][j][k] == 2 * banded[c][j][k] == matches
                if t >= 2:
                    phi = float(Fraction(matches, t * (t - 1)))
                    assert phi == pytest.approx(naive_phi(y, dim, lag, radius, cap), abs=1e-12)
                    want[j] += phi

        if extra < 0:
            assert points[k] is None
            assert naive_phi(chans[-1].tolist(), dims[-1] + 1, lag, radius) is None
        else:
            assert points[k] == tuple(want)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 3), lag=st.integers(1, 2), extra=st.integers(0, 30), equal=st.booleans(),
       block=st.sampled_from([1, 7, 1 << 16]), data=st.data())
def test_band_and_sweep_count_one_channel_alike_at_extreme_magnitudes(d, lag, extra, equal,
                                                                      block, data):
    # Samples drawn from a few values between 1e-300 and 1e300 in size,
    # of either sign, each nudged by up to one ulp, so distances span the
    # whole range and near-ties abound. The radii sit at a distance two
    # samples realize and one ulp either side. The two counters must give
    # the same counts on the same channel, and the naive double loop's,
    # both with all radii in one call (the float test) and with each radius
    # alone (the rank test).
    n = d * lag + 2 + extra
    pool = data.draw(st.lists(
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999),
                  st.integers(-300, 299)).map(lambda v: v[0] * v[1] * 10.0 ** v[2]),
        min_size=1, max_size=4))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(-1, 1)),
                               min_size=n, max_size=n))
    y = np.array([np.nextafter(pool[i], np.copysign(np.inf, nudge * pool[i])) if nudge
                  else pool[i] for i, nudge in picks])
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    at = abs(y[i] - y[j])
    radii = [r for r in (np.nextafter(at, 0.0), at, np.nextafter(at, np.inf)) if r > 0]
    cap = n - d * lag if equal else None

    with mock.patch.object(estimators, "_BLOCK_CELLS", block):
        band, sweep = counts(y, lag, radii, d, equal)
        alone = [counts(y, lag, [radius], d, equal) for radius in radii]
    for k, radius in enumerate(radii):
        for count, dim, dim_cap in ((0, d, cap), (1, d + 1, None)):
            matches = sum(naive_counts(naive_templates(y.tolist(), dim, lag)[:dim_cap], radius))
            assert 2 * band[count][k] == 2 * sweep[count][k] == matches
            assert 2 * alone[k][0][count][0] == 2 * alone[k][1][count][0] == matches


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), lag=st.integers(1, 2), extra=st.integers(0, 30), equal=st.booleans(),
       data=st.data())
def test_rank_test_counts_alike_with_uint32_ranks(d, lag, extra, equal, data):
    # Channels of 65535 samples or more take uint32 ranks, with their own
    # sentinel and wrap-around; a patched dtype puts short tie-heavy
    # channels on them. Each radius alone (the rank test) must give the
    # naive double loop's counts on both counters.
    n = d * lag + 2 + extra
    y = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) * 0.1
    cap = n - d * lag if equal else None
    with mock.patch.object(estimators, "_rank_dtype", return_value=np.uint32) as dtype:
        for radius in (0.1, 0.2, 0.3):
            band, sweep = counts(y, lag, [radius], d, equal)
            for count, dim, dim_cap in ((0, d, cap), (1, d + 1, None)):
                matches = sum(naive_counts(naive_templates(y.tolist(), dim, lag)[:dim_cap],
                                           radius))
                assert 2 * band[count][0] == 2 * sweep[count][0] == matches
    assert dtype.call_count == 3  # each radius's one sort took the uint32 ranks


@pytest.mark.parametrize("n", [50, 257])
@pytest.mark.parametrize("lag", [1, 2, 3])
@pytest.mark.parametrize("radii", [[1.0], [0.5, 1.0]], ids=["rank", "float"])
def test_a_constant_channel_matches_every_pair(n, lag, radii):
    # On a constant channel every template pair matches, so only the
    # channel's end stops a match. The sweep reads each block flat, its
    # rows running on into each other, and a chain step of L from a live
    # cell must land in its own row's dead cells at the latest; a block of
    # a few rows puts many row ends in each block. Both counters must
    # count every pair: T(T - 1)/2 at d and at d + 1.
    y = np.full(n, 3.0)
    for block in (3 * n, estimators._BLOCK_CELLS):
        with mock.patch.object(estimators, "_BLOCK_CELLS", block):
            for d in range(1, 7):
                for equal in (False, True):
                    t_lo, t_hi = n - (d - 1 + equal) * lag, n - d * lag
                    want = [[math.comb(t_lo, 2)] * len(radii), [math.comb(t_hi, 2)] * len(radii)]
                    band, sweep = counts(y, lag, radii, d, equal)
                    assert np.array(band).tolist() == np.array(sweep).tolist() == want


def _grid_channel(n, half, seed):
    """n samples on the 0.1 grid between -half/10 and half/10: ties on every value."""
    return np.random.default_rng(seed).integers(-half, half + 1, n) * 0.1


@pytest.mark.parametrize("band", [True, False], ids=["band", "sweep"])
@pytest.mark.parametrize("radii", [[0.1], [0.05, 0.1, 0.15]], ids=["rank", "float"])
def test_mmse_walk_and_vemse_counters_count_one_channel_alike(band, radii):
    # On one channel, mmse's base pass counts the pairs vemse counts at m
    # with equal, and its bumped pass those vemse counts at m + 1 on the
    # channel less its last L samples; _prob is one-to-one for a fixed T,
    # so equal probabilities mean equal counts. The band runs on 65535
    # samples, where the ranks are uint32 and the walk takes many tiles and
    # skips, with nothing patched but the counter choice. A forced sweep
    # visits about n^2 / 2 cells (4.4 s at 65535 samples on 2 CPUs), so it
    # runs on a shorter channel.
    n, m, lag = (65535, 2, 1) if band else (6000, 2, 2)
    y = _grid_channel(n, 200 if band else 40, seed=n)
    ranks = _sort_channel(y, lag, radii, m, True)[0]
    assert (ranks is not None) == (len(radii) == 1)
    if ranks is not None:
        assert ranks[0].dtype == (np.uint32 if band else np.uint16)
    t = n - m * lag
    assert t > 4 * estimators._TILE
    with mock.patch.object(estimators, "_band_is_cheaper", return_value=band):
        lo = _pair_counts(y[None], lag, radii, [m], equal=True)[0][:, 0]
        hi = _pair_counts(y[None, :-lag], lag, radii, [m])[1][:, 0]
    assert 0 < hi.min() and lo.max() < t * (t - 1) // 2
    for k, radius in enumerate(radii):
        assert _cdv_probs(y[None], [m], [lag], radius) == (_prob(lo[k], t),
                                                            _prob(hi[k], t - lag))


@pytest.mark.parametrize("d, lag", [(1, 1), (2, 3), (4, 1)])
@pytest.mark.parametrize("radii", [[0.2], [0.1, 0.2, 0.3]], ids=["rank", "float"])
def test_counts_survive_power_of_two_scaling_and_time_reversal(d, lag, radii):
    # Scaling the samples and the radii by a power of two is exact in
    # binary floating point, away from overflow and subnormals, and
    # reversing time maps the templates at each dimension onto templates
    # at the same distances; neither may change a count of either counter.
    def counted(y, radii):
        return np.array(counts(y, lag, radii, d, False)).tolist()  # [counter][lo, hi][radius]

    y = _grid_channel(3000, 30, seed=d)
    want = counted(y, radii)
    assert want[0] == want[1] and want[0][1][-1] > 0  # some pairs match at d + 1
    for power in (-900, -1, 7, 900):
        assert counted(np.ldexp(y, power), [math.ldexp(r, power) for r in radii]) == want
    assert counted(y[::-1].copy(), radii) == want
