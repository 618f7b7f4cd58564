"""Entropy estimators: sample entropy, MSE, variational-embedding MSE, MMSE.

All four estimators run one per-scale loop (_curves), so they refuse
the same scales alike: non-overlapping coarse graining, one matching
radius per tolerance rule, a counter and the log ratio. Each counter
matches delay-embedded templates under the Chebyshev (max-abs) distance
with an inclusive boundary, self-matches excluded, so probabilities are
exact ratios of integer pair counts, equal to the naive double loop's.

sampen is mse at scale 1, and mse is vemse on one channel, so all three
count through _vemse_curves and its one entry point, _pair_counts, which
gives every channel's matching template pairs at m and m+1 for a list of
radii. Each channel has its own dimension, so each is counted on its
own, by one of two exact counters:

- the diagonal sweep (_sweep_counts) visits every template pair, n^2/2
  whatever the radius: a pair matches at dimension d when its run of
  close samples along the diagonal is long enough, so one sweep counts
  both dimensions; each block of diagonals ends every row in at least
  L dead cells (places past the channel's end, never close), so the
  block's AND chain and counts run on it as one flat array;
- the band counter (_band_counts) takes the templates in sorted order
  of their first element and visits only the pairs whose first elements
  lie within the largest radius, checking each template element there.

Each channel is sorted once (_sort_channel), and both counters take
what they need from that one sort: the exact extent of the band, from
each sample's run end at the largest radius (_run_ends), and the ranks
of the rank test below. A channel goes to the band counter when its
band is narrow enough to beat the sweep (_band_is_cheaper): sample
entropy's usual radii on long records. Both counters take the same
arguments and walk their diagonals in blocks through one helper
(_close_blocks), which alone builds the padded sample keys, holds the
rule that an overflowing difference matches nothing, and tests which
sample pairs are close, by one of two exact tests (_ranks_are_cheaper):

- at one radius, on sample ranks: each sample gets the run of sorted
  places whose computed |difference| from it is within the radius
  (_rank_runs), and a cell costs a uint16 subtract and a compare;
- for several radii (an r-sweep), on float |differences|: each block's
  |difference| is taken once and compared with every radius, so the
  radii are counted in one pass per scale.

mmse counts composite delay vectors with one pair walk per scale and
radius (_cdv_probs): the templates are sorted by their first coordinate
and cut into tiles, and each pair of tiles that the first coordinates'
run ends (_run_ends) keep is tested cell by cell in numpy (_tile_pairs),
listing each pair within the radius at the base dims once; each bumped
pass checks its one extra coordinate, NaN past its templates, on those.
mmse stays off the two counters above, where its channels would share
one match mask and could overtake vemse, against the acceptance timing
criterion (vemse no slower than mmse); on that criterion's input vemse
runs about 3.6 times as fast as mmse at two channels and 2.7 times at
four (BENCH_kernel.json).

Undefined estimates (no matches at dimension m or m+1, or too few
templates at a scale) are returned as None, never raised and never NaN.
"""
from __future__ import annotations

import math

import numpy as np

from .series import (
    DegenerateToleranceError,
    EntropyCurve,
    EntropyParams,
    InvalidParameterError,
    MultichannelSeries,
    ToleranceRule,
    whole_number,
)

__all__ = [
    "coarse_grain",
    "resolve_tolerance",
    "sampen",
    "mse",
    "vemse",
    "mmse",
]


def coarse_grain(x, tau: int) -> np.ndarray:
    """Average x over non-overlapping windows of length tau.

    Output element j is the mean of x[j*tau : (j+1)*tau]; the trailing
    N mod tau samples are discarded. tau = 1 is the identity.
    """
    x = np.asarray(x, dtype=float)
    tau = whole_number(tau, "tau")
    if tau < 1 or tau > x.size:
        raise InvalidParameterError("tau must satisfy 1 <= tau <= len(x), got %r" % (tau,))
    n = x.size // tau
    return x[: n * tau].reshape(n, tau).mean(axis=1)


def resolve_tolerance(data, rule: ToleranceRule) -> float:
    """Turn a tolerance rule into an absolute matching radius.

    In covariance_trace mode the radius is quotient * tr(S), where S is
    the P x P sample covariance matrix (ddof=1) of the channels. Constant
    data makes the trace zero, samples so large that the variance
    overflows (about 1e154 and up) make it infinite, and so does a large
    enough quotient to the radius; each raises DegenerateToleranceError.
    """
    return _radii(data, [rule])[0]


def _radii(data, rules) -> list:
    """resolve_tolerance of data under each rule, in order, taking the covariance trace once."""
    radii, trace = [], None
    for rule in rules:
        if rule.mode == "absolute":
            radii.append(rule.value)
            continue
        if trace is None:
            chans = data.channels if isinstance(data, MultichannelSeries) else np.atleast_2d(
                np.asarray(data, dtype=float))
            if chans.shape[1] < 2:
                raise InvalidParameterError(
                    "covariance_trace tolerance needs >= 2 samples per channel")
            # an overflow is reported by the check below, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                trace = float(np.sum(np.var(chans, axis=1, ddof=1)))
            if not np.isfinite(trace):
                raise DegenerateToleranceError("covariance trace overflows (samples too large)")
            if trace <= 0.0:
                raise DegenerateToleranceError("covariance trace is zero (constant input)")
        if not math.isfinite(rule.value * trace):
            raise DegenerateToleranceError("radius overflows: quotient %r times covariance trace %r"
                                           % (rule.value, trace))
        radii.append(rule.value * trace)
    return radii


# Cells (element rows times diagonals times places) in one block of a
# pair counter; bounds its scratch memory (at most about 10 bytes per
# cell) while keeping each numpy call long and the Python loop short.
_BLOCK_CELLS = 1 << 16


def _ranks_are_cheaper(radii) -> bool:
    """Whether the pair counters test closeness on sample ranks, not float |differences|.

    The float test takes each cell's |difference| once (a float64 subtract
    and an abs) and then one compare per radius. The rank test
    (_rank_runs) takes a uint16 subtract and a compare per radius, after
    one sort of the channel. Measured on 2 CPUs on 1000-sample channels,
    the rank test wins at one radius, the two are about even at two, and
    from three radii on the float test wins: the 15-radius r-sweep took
    0.16 s on ranks against 0.13 s sharing the |difference|.
    """
    return len(radii) == 1


def _rank_dtype(n: int):
    """The unsigned dtype of the ranks of n samples: it holds n + 1 ranks and a sentinel."""
    return np.uint16 if n < np.iinfo(np.uint16).max else np.uint32


def _run_ends(s: np.ndarray, radius: float) -> np.ndarray:
    """end[q]: the first place p of sorted s whose computed s[p] - s[q] is past radius.

    The computed difference never falls as s[p] grows or as s[q] falls
    (rounding is monotone), so end[q] is exact when the place before it
    is within the radius and the place at it is not, and end never falls
    as q grows. A search for s[q] + radius gives that for all but the
    few q whose search rounding misled; those are bisected on the
    computed difference itself.
    """
    n = s.size
    # an overflowing difference is infinite: past any finite radius
    with np.errstate(over="ignore"):
        end = np.searchsorted(s, s + radius, side="right")
        past = (s[end - 1] - s) > radius
        short = (np.append(s, np.nan)[end] - s) <= radius  # NaN at n: never short
        q = np.flatnonzero(past | short)
        lo = np.where(short[q], end[q] + 1, q + 1)
        hi = np.where(short[q], n, end[q] - 1)
        while q.size:
            done = lo == hi
            end[q[done]] = lo[done]
            q, lo, hi = q[~done], lo[~done], hi[~done]
            mid = (lo + hi) // 2
            fits = (s[mid] - s[q]) <= radius
            lo = np.where(fits, mid + 1, lo)
            hi = np.where(fits, hi, mid)
    return end


def _rank_runs(order: np.ndarray, end: np.ndarray):
    """(rank, lo, w): the sample ranks of a channel and each sample's run of close ranks.

    order sorts the channel (y[order] is sorted) and end is _run_ends of
    the sorted channel at the one radius. rank[i] is y[i]'s place in
    sorted order, and |y[j] - y[i]| (as computed) is <= the radius exactly
    when rank[j] lies in lo[i]..lo[i] + w[i]: the computed difference
    never falls as y[j] grows and ties give equal differences, so that run
    is contiguous and holds whole tie groups. Each array has one more
    entry, for a sample past the end: its rank is the dtype's max, a
    sentinel that lies in no run, and its run (lo = n, w = 0) holds no
    rank.

    A run's start follows from the ends, since the test is symmetric
    (s[p] is close to s[q] exactly when s[q] is to s[p]).
    """
    n = order.size
    dtype = _rank_dtype(n)
    rank = np.full(n + 1, np.iinfo(dtype).max, dtype=dtype)
    rank[order] = np.arange(n, dtype=dtype)
    # start[q] = #{p: end[p] <= q}, the first place whose run reaches q
    start = np.cumsum(np.bincount(end, minlength=n + 1)[:n])
    lo = np.full(n + 1, n, dtype=dtype)
    w = np.zeros(n + 1, dtype=dtype)
    lo[order] = start
    w[order] = end - start - 1
    return rank, lo, w


def _close_blocks(y: np.ndarray, ranks, at: np.ndarray, k_max: int, span, radii):
    """Which pairs on the diagonals k = 1..k_max are close, a block at a time.

    The keys are the samples y[at], at being (E, T) sample indices, those
    >= y.size past the end of y; k_max must not pass T. ranks is
    _rank_runs of y for the rank test, or None for the float test. The
    keys are padded to (E, 2T) with NaN (float test) or the sentinel rank
    (rank test), so a pair reaching past the end, into the right half, is
    never close. span(k0) is (first, width): the block from diagonal k0
    covers places first..first + width - 1 of each of its diagonals, with
    first + width <= T. A block holds about _BLOCK_CELLS cells and at
    least one diagonal.

    Yields (k0, k, close) per block and radius, where close[e, a, i] says
    whether the samples at element e of places first + i and first + i +
    k0 + a are within radii[k]; close is reused by the next yield. The
    float test takes each block's |difference| once and compares it with
    each radius; samples near +-1e308 can differ by more than the largest
    float, and that subtract overflows silently, since an infinite
    |difference| never matches a finite radius. The rank test, at its one
    radius, takes rank[j] - lo[i] modulo the dtype, which is <= w[i]
    exactly when rank[j] lies in the run.
    """
    if k_max < 1:
        return
    n = y.size
    n_el, t = at.shape
    at = np.minimum(at, n)
    if ranks is None:
        S = np.full((n_el, 2 * t), np.nan)
        S[:, :t] = np.append(y, np.nan)[at]
    else:
        rank, lo, w = ranks
        S = np.full((n_el, 2 * t), rank[n])
        S[:, :t] = rank[at]
        lo, w = lo[at], w[at]
    step = S.strides[1]
    # every diagonal of S as one view: diagonals[e, k, q] = S[e, q + k]
    diagonals = np.lib.stride_tricks.as_strided(
        S, shape=(n_el, k_max + 1, t), strides=(S.strides[0], step, step))
    # scratch reused by every block: fresh arrays would page-fault each time
    size = max(_BLOCK_CELLS, n_el * t)
    gap_buf = np.empty(size, dtype=S.dtype)
    close_buf = np.empty(size, dtype=bool)
    k0 = 1
    while k0 <= k_max:
        first, width = span(k0)
        rows = min(max(1, _BLOCK_CELLS // (n_el * width)), k_max + 1 - k0)
        shape = (n_el, rows, width)
        cells = n_el * rows * width
        cols = slice(first, first + width)
        block = diagonals[:, k0:k0 + rows, cols]
        gap = gap_buf[:cells].reshape(shape)
        close = close_buf[:cells].reshape(shape)
        if ranks is None:
            with np.errstate(over="ignore"):  # an infinite |difference| matches nothing
                np.abs(np.subtract(block, S[:, None, cols], out=gap), out=gap)
            for k, radius in enumerate(radii):
                yield k0, k, np.less_equal(gap, radius, out=close)
        else:
            np.subtract(block, lo[:, None, cols], out=gap)
            yield k0, 0, np.less_equal(gap, w[:, None, cols], out=close)
        k0 += rows


def _sweep_counts(y: np.ndarray, lag: int, radii, d: int, chan):
    """_pair_counts for one channel, by a sweep over every diagonal.

    Template pair (i, j = i + s) matches at dimension d exactly when
    |y[i+kL] - y[j+kL]| <= radius for k = 0..d-1, so one sweep over the
    diagonals s counts both dimensions at once: the match mask at e+1 is
    the mask at e ANDed with the closeness of the e-th template element.
    A pair reaching past the channel's end is never close
    (_close_blocks), so it drops out with no bound checks.

    The keys run L places past the channel's end, so each row of a block
    (one diagonal) ends in at least L dead cells, which are never close,
    and the block is read as one flat array: element e of cell f's pair
    is cell f + eL. The chain reaches f + eL only through a true match
    at f + (e-1)L, a live cell, and L places on from a live cell lie in
    its own row, so a match never takes a cell of the next row; the
    chain at e + 1 drops the block's last eL cells, whose pairs reach
    past the block. With L - 1 dead cells a step could reach the next
    row, and a constant channel would be miscounted. chan is
    _sort_channel's result for the same channel: the sweep reads its
    ranks, and its cap, the templates counted at d (chan[1].size), which
    under equal_template_count is below _templates(n, d, lag).

    Returns (lo, hi): int arrays of len(radii), pair counts at d and d + 1.
    """
    n = y.size
    lo = np.zeros(len(radii), dtype=np.int64)
    hi = np.zeros(len(radii), dtype=np.int64)
    t, cap = _templates(n, d, lag), chan[1].size
    if cap < t:
        # before_cap[s, i]: whether j = i + s is below the cap
        before_cap = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) < cap, n)
    match_buf = np.empty(max(_BLOCK_CELLS, n), dtype=bool)
    # a diagonal s holds a pair at dimension d only if s < t; the lag places
    # past the end give every row of a block at least lag dead cells
    for k0, k, close in _close_blocks(y, chan[0], np.arange(n + lag)[None, :], t - 1,
                                      lambda k0: (0, n + lag - k0), radii):
        rows, width = close.shape[1:]
        close = match = close.reshape(-1)
        cells = close.size
        for e in range(1, d + 1):
            if e == d:
                counted = match
                if cap < t:
                    # pair j = i + s counts only if j < cap; the first keep
                    # cells of each row lie inside match (strides in bytes)
                    keep = max(cap - k0, 0)
                    counted = (np.lib.stride_tricks.as_strided(match, (rows, keep), (width, 1))
                               & before_cap[k0:k0 + rows, :keep])
                lo[k] += np.count_nonzero(counted)
            # match[f] at e + 1: match at e and close[f + eL]; a true match[f]
            # at e ends in the live cell f + (e-1)L, so f + eL is in its row
            s = e * lag
            match = np.logical_and(match[:cells - s], close[s:], out=match_buf[:cells - s])
        hi[k] += np.count_nonzero(match)
    return lo, hi


def _templates(n: int, d: int, lag: int, equal: bool = False) -> int:
    """Templates of a length-n channel at dimension d; with equal, as many as at d + 1."""
    return n - (d - 1 + equal) * lag


def _prob(pairs, t: int) -> float:
    """The exact match probability of `pairs` unordered pairs among t templates."""
    return int(2 * pairs) / (t * (t - 1))


def _sort_channel(y: np.ndarray, lag: int, radii, d: int, equal: bool):
    """(ranks, order, reach): what either counter needs for one channel, from one sort.

    y is argsorted once and each sorted place's run end at max(radii) is
    searched exactly (_run_ends). ranks is _rank_runs at the one radius
    for the rank test (_ranks_are_cheaper), None for the float test.
    order lists the T templates counted at d (the first T samples) by
    their first element, ties in any order, and reach[q] is how many of
    the later ones in that order lie within max(radii) of template
    order[q] there: the band's pairs are the cells (q, q + k) with
    1 <= k <= reach[q], and reach.sum() is its size.
    """
    t = _templates(y.size, d, lag, equal)
    order = np.argsort(y)
    end = _run_ends(y[order], max(radii))
    ranks = _rank_runs(order, end) if _ranks_are_cheaper(radii) else None
    # the templates' sorted places, and before[p]: how many lie before place p
    is_tpl = order < t
    at = np.flatnonzero(is_tpl)
    before = np.concatenate(([0], np.cumsum(is_tpl)))
    return ranks, order[at], before[end[at]] - before[at + 1]


def _band_counts(y: np.ndarray, lag: int, radii, d: int, chan):
    """_pair_counts for one channel, walking the band of its sorted templates.

    chan is _sort_channel's result for the same channel: the templates
    counted at d in sorted order and each one's reach. Element e of the
    template at sorted place q is y[order[q] + e*L], and past the last
    template and past the end of y nothing is close (_close_blocks).
    Every pair within the largest radius is a cell (q, q + k) with
    1 <= k <= reach[q], so each diagonal k is walked only over the span
    from the first place whose prefix max of reach gets to k to the last
    whose suffix max does. That span can hold places with reach[q] < k,
    whose cells are past the radius on element 0, so element 0 is tested
    like every other, even at one radius. The closeness test is the
    sweep's on the same two samples, up to an exact negation, so the
    counts are exact.

    Returns (lo, hi): int arrays of len(radii), pair counts at d and d + 1.
    """
    lo = np.zeros(len(radii), dtype=np.int64)
    hi = np.zeros(len(radii), dtype=np.int64)
    ranks, order, reach = chan
    k_max = int(reach.max(initial=0))
    ks = np.arange(1, k_max + 1)
    first = np.searchsorted(np.maximum.accumulate(reach), ks)
    width = order.size - np.searchsorted(np.maximum.accumulate(reach[::-1]), ks) - first
    spans = list(zip(first.tolist(), width.tolist()))
    for _, k, close in _close_blocks(y, ranks, order + lag * np.arange(d + 1)[:, None], k_max,
                                     lambda k0: spans[k0 - 1], radii):
        match = close[0]
        for e in range(1, d):
            np.logical_and(match, close[e], out=match)
        lo[k] += np.count_nonzero(match)
        hi[k] += np.count_nonzero(np.logical_and(match, close[d], out=match))
    return lo, hi


def _band_is_cheaper(n: int, d: int, band: int) -> bool:
    """Whether the band counter beats the sweep for one channel.

    The sweep visits about n^2 / 2 cells of a channel whatever the radius,
    with one closeness test and a short AND chain each; the band counter
    visits about `band` cells (the band's size at the largest radius)
    with a closeness test per template element (_close_blocks). Measured
    on 2 CPUs on a 4000-sample Gaussian channel whose band holds 27% of
    its pairs, a band cell costs about (d + 3) / 2 sweep cells at one
    radius (rank test: 1.8, 2.4, 2.9, 3.7, 4.1 and 4.7 at d = 1 to 6),
    and less in an r-sweep (float test, 15 radii: 1.6 at d = 1 to 3.6 at
    d = 6).
    """
    return (d + 3) * band < n * n


def _pair_counts(chans: np.ndarray, lag: int, radii, dims, equal: bool = False):
    """Matching template pairs of every channel at dims[c] and dims[c] + 1, per radius.

    chans is (P, n) with finite samples; radii is any sequence of radii
    (unsorted and repeated ones are fine). With equal, the count at
    dims[c] keeps only as many templates as the count at dims[c] + 1
    (_templates).

    Each channel is sorted once (_sort_channel), which sizes its band at
    the largest radius exactly, and is counted on its own by one of two
    exact counters, both fed by that sort: a channel whose band is narrow
    (_band_is_cheaper) goes to the band counter, any other to the
    diagonal sweep.

    Returns (lo, hi): unordered pair counts at dims[c] and dims[c] + 1,
    int arrays of shape (len(radii), P), row k at radii[k]. Self-pairs
    are never counted.
    """
    p, n = chans.shape
    lo = np.zeros((len(radii), p), dtype=np.int64)
    hi = np.zeros((len(radii), p), dtype=np.int64)
    for c, d in enumerate(dims):
        chan = _sort_channel(chans[c], lag, radii, d, equal)
        counter = _band_counts if _band_is_cheaper(n, d, int(chan[2].sum())) else _sweep_counts
        lo[:, c], hi[:, c] = counter(chans[c], lag, radii, d, chan)
    return lo, hi


def _curve_points(channels: np.ndarray, m: int, lag: int, radii,
                  equal_template_count: bool) -> list:
    """veMSE points at each radius from already coarse-grained (P, n) channels.

    Channel c (0-based) is embedded at dimension m+c for the first pass
    and m+c+1 for the second; the per-channel probabilities are summed
    before the log ratio. Each probability is the exact ratio of ordered
    matching pairs to T*(T-1), which equals the mean of the per-template
    local probabilities. Returns one (phi_m, phi_m1) per radius, from one
    pair-count pass; every point is None when the second pass has fewer
    than two templates.
    """
    p, n = channels.shape
    dims = list(range(m, m + p))
    t_lo = [_templates(n, d, lag, equal_template_count) for d in dims]
    t_hi = [_templates(n, d + 1, lag) for d in dims]
    if t_hi[-1] < 2:
        return [None] * len(radii)
    lo, hi = _pair_counts(channels, lag, radii, dims, equal_template_count)
    points = []
    for lo_k, hi_k in zip(lo, hi):
        phi_lo = phi_hi = 0.0
        for c in range(p):
            phi_lo += _prob(lo_k[c], t_lo[c])
            phi_hi += _prob(hi_k[c], t_hi[c])
        points.append((phi_lo, phi_hi))
    return points


def _log_ratio(probs):
    """-ln(phi_m1 / phi_m), or None when the point is infeasible or matchless."""
    if probs is None or 0.0 in probs:
        return None
    # 0.0 - x, not -x: an exact zero comes out 0.0, never -0.0
    return 0.0 - math.log(probs[1] / probs[0])


def _zscore(chans: np.ndarray) -> np.ndarray:
    # an overflow is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        mean = chans.mean(axis=1, keepdims=True)
        # one sample has no spread: it is centred and scaled as a constant channel is
        sd = chans.std(axis=1, ddof=1, keepdims=True) if chans.shape[1] > 1 else 1.0
    if not np.all(np.isfinite(sd)):
        raise DegenerateToleranceError("channel variance overflows (samples too large)")
    sd = np.where(sd > 0, sd, 1.0)
    return (chans - mean) / sd


def _curves(data: MultichannelSeries, params: EntropyParams, rules, points, *,
            normalize: bool, per_scale_tolerance: bool) -> list[EntropyCurve]:
    """The per-scale loop of every estimator: one curve per tolerance rule.

    points(cg, radii) counts the coarse-grained (P, n) channels cg once
    and returns one (phi_m, phi_m1) or None per radius; params.r is not
    read. With per_scale_tolerance, a scale where a rule has no radius
    leaves every rule's point None, so per-scale callers pass one rule.
    """
    params.check_feasible(data.n_samples)
    chans = _zscore(data.channels) if normalize else data.channels
    radii = None if per_scale_tolerance else _radii(chans, rules)
    values, probs = [[] for _ in rules], [[] for _ in rules]
    for tau in params.scales:
        cg = np.stack([coarse_grain(ch, tau) for ch in chans])
        try:
            r_abs = _radii(cg, rules) if per_scale_tolerance else radii
        except DegenerateToleranceError:
            found = [None] * len(rules)  # no radius at this scale: undefined
        else:
            found = points(cg, r_abs)
        for k, pr in enumerate(found):
            values[k].append(_log_ratio(pr))
            probs[k].append(pr)
    return [EntropyCurve(scales=list(params.scales), values=values[k], probs=probs[k],
                         radius=None if radii is None else radii[k])
            for k in range(len(rules))]


def _vemse_curves(data: MultichannelSeries, params: EntropyParams, rules, *, normalize=False,
                  per_scale_tolerance=False, equal_template_count=False) -> list[EntropyCurve]:
    """vemse under each tolerance rule in rules: curve k equals vemse under rules[k]."""
    return _curves(data, params, rules,
                   lambda cg, radii: _curve_points(cg, params.m, params.L, radii,
                                                   equal_template_count),
                   normalize=normalize, per_scale_tolerance=per_scale_tolerance)


def vemse(
    data: MultichannelSeries,
    params: EntropyParams,
    rule: ToleranceRule | None = None,
    *,
    normalize: bool = False,
    per_scale_tolerance: bool = False,
    equal_template_count: bool = False,
) -> EntropyCurve:
    """Variational-embedding multiscale sample entropy of a multichannel record.

    Per scale tau: every channel is coarse-grained, channel c (in input
    order) is embedded at dimension m+c-1 (1-based c), the global match
    probabilities are summed over channels at those dimensions and again
    with every dimension incremented, and the point value is
    -ln(phi_{m+1} / phi_m). A point is None when a pass is infeasible or
    either probability sum is zero.

    The matching radius is resolved once from the uncoarsened record
    (default) or per scale from the coarse-grained channels when
    per_scale_tolerance is set; a scale with no radius there (all its
    coarse-grained channels constant, or an overflow) has its point None.
    Channels are used raw by default; normalize applies a per-channel
    z-score first. equal_template_count restricts the first pass to as
    many templates as the second, the classic sample-entropy convention;
    off by default, which follows the literal two-pass counting.

    Returns an EntropyCurve with the probability sums and, unless it was
    resolved per scale, the radius attached.
    """
    data = data if isinstance(data, MultichannelSeries) else MultichannelSeries(data)
    if rule is None:
        rule = ToleranceRule.trace(params.r)
    return _vemse_curves(data, params, [rule], normalize=normalize,
                         per_scale_tolerance=per_scale_tolerance,
                         equal_template_count=equal_template_count)[0]


def mse(x, params: EntropyParams, rule: ToleranceRule | None = None, **flags) -> EntropyCurve:
    """Univariate multiscale sample entropy: vemse on one channel, (N,) or (1, N)."""
    data = MultichannelSeries(np.asarray(x, dtype=float))
    if data.n_channels != 1:
        raise InvalidParameterError("mse and sampen take one channel, got %d" % data.n_channels)
    return vemse(data, params, rule, **flags)


def sampen(x, m: int, r_abs: float, lag: int = 1, *, equal_template_count: bool = False):
    """Single-scale sample entropy with an absolute matching radius: mse at scale 1.

    Returns -ln(phi_{m+1}/phi_m) or None when either probability is zero
    or the data is too short for two templates at dimension m+1.
    """
    return mse(x, EntropyParams(m=m, r=r_abs, L=lag), ToleranceRule.absolute(r_abs),
               equal_template_count=equal_template_count).values[0]


# Rows of one tile of mmse's pair walk. A listing (a tile with itself or
# with a later tile) tests at most _TILE^2 = 2^16 cells, in scratch that
# every listing reuses, and lists at most that many pairs, under 200
# bytes each, whatever the radius. Only tiles whose first coordinates
# come within the radius are listed, so smaller tiles test fewer far
# cells, at more listings. Measured on 2 CPUs over tiles of 128, 256,
# 512 and 1024 (interleaved, medians): 4000 x 4 at scales 1..5 took
# 0.093, 0.093, 0.106 and 0.160 s; 20k x 4 at scale 1 took 1.40, 1.22,
# 1.29 and 1.74 s; and every pair matching (4000 x 2, radius 100)
# peaked at 38, 43, 58 and 118 MiB.
_TILE = 256
# Composite coordinates a listing tests on every cell; the rest are
# gathered for the pairs those leave. Three or four run long vectors
# faster (4000 x 4 at scales 1..5 took 0.096, 0.074 and 0.069 s at 2, 3
# and 4, same machine), but at three the acceptance timing criterion
# (vemse's lead on mmse grows from two channels to four) held by only
# 0.5-9.5 ms in 24 timing_benchmark runs, within the machine's noise;
# at two, by 8-36 ms.
_DENSE = 2


def _tile_pairs(cols, a, b, radius, scratch):
    """Sorted places (i, j), i in rows a and j in rows b, within the radius everywhere.

    a and b slice the columns of cols (one row per coordinate); within
    one tile (a == b) only j > i is listed. The first _DENSE coordinates
    are tested on every cell, the rest on the pairs those leave; each
    test is |difference| <= radius.
    """
    gap, close, near, upper = (buf[:a.stop - a.start, :b.stop - b.start] for buf in scratch)
    for k, col in enumerate(cols[:_DENSE]):
        np.abs(np.subtract(col[a, None], col[None, b], out=gap), out=gap)
        np.less_equal(gap, radius, out=near if k else close)
        if k:
            np.logical_and(close, near, out=close)
    if a == b:
        np.logical_and(close, upper, out=close)
    i, j = np.nonzero(close)
    i += a.start
    j += b.start
    for col in cols[_DENSE:]:
        keep = np.abs(col[i] - col[j]) <= radius
        i, j = i[keep], j[keep]
    return i, j


def _cdv_probs(channels, dims, lags, radius: float):
    """(phi at dims, mean phi over the P bumped passes) from one pair walk.

    Composite template i holds y_c[i + k*l_c], k = 0..m_c-1, for every
    channel c; a pass has T = N_t - max(dims)*max(lags) templates, and
    None is returned when any pass has fewer than two. Bumped pass c adds
    the one coordinate y_c[i + m_c*l_c], so its matching pairs are the
    base matches i != j with both below T_c that are also within the
    radius there.

    The templates are sorted once by their first coordinate (y_0[i]) and
    cut, in that order, into tiles of _TILE; every coordinate is kept in
    that order, so the walk counts sorted places. With end = _run_ends of
    the first coordinates, each tile a lists its own pairs, and each later
    tile b that starts before end[a's last row] the pairs between them
    (_tile_pairs): b stops there, and a drops its rows q with end[q] <= b's
    start, which are past the radius from all of b. So every base match is
    listed once. A bumped pass's added coordinate is NaN from template T_c
    on, so a pair reaching past T_c never matches there.
    """
    n_t = channels[0].size
    lag = max(lags)
    t = _templates(n_t, max(dims), lag, True)
    t_bump = [_templates(n_t, max(max(dims), d + 1), lag, True) for d in dims]
    if min([t] + t_bump) < 2:
        return None
    order = np.argsort(channels[0][:t])
    cols = np.stack([y[k * l: k * l + t][order]
                     for y, m, l in zip(channels, dims, lags) for k in range(m)])
    # extras[c][q]: y_c[i + m_c*l_c] for the template i at sorted place q
    extras = [np.append(y[m * l: m * l + tb], np.full(t - tb, np.nan))[order]
              for y, m, l, tb in zip(channels, dims, lags, t_bump)]
    end = _run_ends(cols[0], radius)
    shape = (_TILE, _TILE)
    scratch = (np.empty(shape), np.empty(shape, bool), np.empty(shape, bool),
               np.triu(np.ones(shape, bool), 1))
    base = 0
    bumped = [0] * len(dims)
    for lo in range(0, t, _TILE):
        hi = min(lo + _TILE, t)
        edge = end[hi - 1]
        for start in range(lo, edge, _TILE):
            a = slice(lo + np.count_nonzero(end[lo:hi] <= start), hi)
            i, j = _tile_pairs(cols, a, slice(start, min(start + _TILE, edge)), radius, scratch)
            base += i.size
            for c, extra in enumerate(extras):
                bumped[c] += np.count_nonzero(np.abs(extra[i] - extra[j]) <= radius)
    return _prob(base, t), math.fsum(map(_prob, bumped, t_bump)) / len(dims)


def mmse(
    data: MultichannelSeries,
    dims,
    rule: ToleranceRule | None = None,
    lags=None,
    scales=(1,),
) -> EntropyCurve:
    """Multivariate multiscale sample entropy over composite delay vectors.

    Channels are z-scored first (so the covariance trace equals P), then
    per scale: coarse grain, concatenate the per-channel delay vectors
    into composite templates, and match under the Chebyshev distance.
    The second pass increments one channel's dimension at a time (P ways)
    and averages the resulting probabilities before the log ratio. A
    point is None when any of the P + 1 passes has fewer than two
    templates; that is decided before any counting. Scales are refused
    as in vemse, by the same per-scale loop (_curves).

    Each scale makes one pair walk: the templates are sorted by their
    first coordinate and cut into tiles of _TILE, and each template pair
    within the radius at dims is listed once, by testing a tile against
    itself and against each later tile in numpy; the first coordinates'
    run ends (_run_ends) cut away exactly the tiles and rows past the
    radius there. Each bumped pass keeps the listed pairs whose added
    coordinate, NaN past its own templates, is within the radius too. The
    counts equal those of P + 1 separate passes.

    Parameters
    ----------
    dims : sequence of int, per-channel embedding dimensions M.
    lags : sequence of int, per-channel time lags; default all ones.
    """
    data = data if isinstance(data, MultichannelSeries) else MultichannelSeries(data)
    p = data.n_channels
    dims = [whole_number(d, "dim") for d in dims]
    if len(dims) != p or any(d < 1 for d in dims):
        raise InvalidParameterError("dims must list a positive dimension per channel")
    lags = [1] * p if lags is None else [whole_number(l, "lag") for l in lags]
    if len(lags) != p or any(l < 1 for l in lags):
        raise InvalidParameterError("lags must list a positive lag per channel")
    return _curves(data, EntropyParams(scales=scales), [rule or ToleranceRule.trace(0.15)],
                   lambda cg, radii: [_cdv_probs(cg, dims, lags, r) for r in radii],
                   normalize=True, per_scale_tolerance=False)[0]
