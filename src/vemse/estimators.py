"""Entropy estimators: sample entropy, MSE, variational-embedding MSE, MMSE.

All estimators share the same machinery: non-overlapping coarse graining,
delay embedding, template matching under the Chebyshev (max-abs) distance
with an inclusive boundary, and probability aggregation with self-matches
excluded. Probabilities are exact ratios of integer pair counts, so
they equal the naive double loop's.

Estimates need only integer counts of matching template pairs at m and
m+1; no template matrix or per-template count is built. sampen, mse and
vemse count with one diagonal run-length sweep per scale (_pair_counts):
a pair matches at dimension d when its run of close samples along the
diagonal is long enough, so one sweep gives the counts at m and m+1 for
every channel. The sweep takes a list of radii: it computes each block's
|difference| once, then runs a compare chain per radius on it, so an
r-sweep counts all its radii in one pass per scale (_vemse_curves; vemse
and mse are its one-rule case, and sampen counts one radius through the
same _curve_points). mmse still counts
composite delay vectors with a k-d tree: on the sweep its channels would
share one match mask and overtake vemse at four channels, against the
acceptance timing criterion (vemse no slower than mmse).

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
    if tau < 1 or tau > x.size:
        raise InvalidParameterError("tau must satisfy 1 <= tau <= len(x), got %r" % (tau,))
    n = x.size // tau
    return x[: n * tau].reshape(n, tau).mean(axis=1)


def resolve_tolerance(data, rule: ToleranceRule) -> float:
    """Turn a tolerance rule into an absolute matching radius.

    In covariance_trace mode the radius is quotient * tr(S), where S is
    the P x P sample covariance matrix (ddof=1) of the channels. Constant
    data makes the trace zero and raises DegenerateToleranceError.
    """
    if rule.mode == "absolute":
        return float(rule.value)
    chans = data.channels if isinstance(data, MultichannelSeries) else np.atleast_2d(
        np.asarray(data, dtype=float))
    if chans.shape[1] < 2:
        raise InvalidParameterError("covariance_trace tolerance needs >= 2 samples per channel")
    trace = float(np.sum(np.var(chans, axis=1, ddof=1)))
    if trace <= 0.0:
        raise DegenerateToleranceError("covariance trace is zero (constant input)")
    return rule.value * trace


# Diagonal cells per channel in one block of the pair-count sweep; bounds
# its scratch memory (about 10 bytes per cell) while keeping the Python
# loop short.
_BLOCK_CELLS = 1 << 15


def _pair_counts(chans: np.ndarray, lag: int, radii, dims, caps=None):
    """Matching template pairs of every channel at dims[c] and dims[c] + 1, per radius.

    chans is (P, n) with finite samples; dims must be nondecreasing; radii
    is any sequence of radii (unsorted and repeated ones are fine).
    Template pair (i, j = i + s) matches at dimension d exactly when
    |y[i+kL] - y[j+kL]| <= radius for k = 0..d-1, so one sweep over the
    diagonals s counts every dimension at once: the match mask at d+1 is
    the mask at d ANDed with the closeness of the d-th template element.
    Each block of diagonals takes its |difference| once, shared by every
    radius, and then runs the compare / AND / count chain once per radius.

    The channels are NaN-padded on the right, so a pair reaching past the
    end of its channel compares False and drops out with no bound checks.
    caps[c], when given, keeps only the first caps[c] templates in the
    count at dims[c] (the equal-template-count convention).

    Returns (lo, hi): unordered pair counts at dims[c] and dims[c] + 1,
    int arrays of shape (len(radii), P), row k at radii[k]. Self-pairs
    (s = 0) are never counted.
    """
    p, n = chans.shape
    lo = np.zeros((len(radii), p), dtype=np.int64)
    hi = np.zeros((len(radii), p), dtype=np.int64)
    caps = [None] * p if caps is None else caps
    pad = np.full((p, 2 * n), np.nan)
    pad[:, :n] = chans
    step = pad.strides[1]
    # scratch reused by every block: fresh arrays would page-fault each time
    size = p * max(_BLOCK_CELLS, n)
    diff_buf = np.empty(size)
    close_buf = np.empty(size, dtype=bool)
    match_buf = np.empty(size, dtype=bool)

    # a diagonal s holds a pair at dimension d only if s < n - (d-1)L
    last = n - (dims[0] - 1) * lag
    s0 = 1
    while s0 < last:
        width = n - s0
        # stopping at `last` also keeps the strided view inside `pad`
        rows = min(max(1, _BLOCK_CELLS // width), last - s0)
        # later[c, a, i] = y_c[i + s0 + a], NaN past the end
        later = np.lib.stride_tricks.as_strided(
            pad[:, s0:], shape=(p, rows, width), strides=(pad.strides[0], step, step))
        cells = p * rows * width
        diff = np.subtract(later, chans[:, None, :width],
                           out=diff_buf[:cells].reshape(p, rows, width))
        np.abs(diff, out=diff)
        for k, radius in enumerate(radii):
            close = np.less_equal(diff, radius, out=close_buf[:cells].reshape(p, rows, width))
            match = close
            first = 0  # channels before `first` have both their counts
            for d in range(1, dims[-1] + 2):
                if d > 1:
                    # match[..., i] at d: match at d-1 and close[..., i + (d-1)L]
                    keep = width - (d - 1) * lag
                    if keep <= 0:
                        break
                    if d == 2:
                        match = np.logical_and(
                            close[:, :, :keep], close[:, :, lag:],
                            out=match_buf[:p * rows * keep].reshape(p, rows, keep))
                    else:
                        np.logical_and(match[first:, :, :keep], close[first:, :, (d - 1) * lag:],
                                       out=match[first:, :, :keep])
                        match = match[:, :, :keep]
                for c in range(first, p):
                    if dims[c] == d:
                        mask = match[c]
                        cap = caps[c]
                        if cap is not None and cap < n - (d - 1) * lag:
                            # pair j = i + s counts only if j < cap, i.e. while the
                            # channel still has a sample n - cap places after j
                            mask = mask[:, :max(width - (n - cap), 0)] & np.isfinite(
                                later[c, :, n - cap:])
                        lo[k, c] += np.count_nonzero(mask)
                    elif dims[c] + 1 == d:
                        hi[k, c] += np.count_nonzero(match[c])
                while first < p and dims[first] + 1 <= d:
                    first += 1
        s0 += rows
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
    t_hi = [n - d * lag for d in dims]
    if t_hi[-1] < 2:
        return [None] * len(radii)
    t_lo = t_hi if equal_template_count else [n - (d - 1) * lag for d in dims]
    lo, hi = _pair_counts(channels, lag, radii, dims,
                          caps=t_hi if equal_template_count else None)
    points = []
    for lo_k, hi_k in zip(lo, hi):
        phi_lo = 0.0
        phi_hi = 0.0
        for c in range(p):
            phi_lo += int(2 * lo_k[c]) / (t_lo[c] * (t_lo[c] - 1))
            phi_hi += int(2 * hi_k[c]) / (t_hi[c] * (t_hi[c] - 1))
        points.append((phi_lo, phi_hi))
    return points


def _log_ratio(probs):
    """-ln(phi_m1 / phi_m), or None when the point is infeasible or matchless."""
    if probs is None or 0.0 in probs:
        return None
    return -math.log(probs[1] / probs[0])


def _zscore(chans: np.ndarray) -> np.ndarray:
    mean = chans.mean(axis=1, keepdims=True)
    sd = chans.std(axis=1, ddof=1, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    return (chans - mean) / sd


def _vemse_curves(data: MultichannelSeries, params: EntropyParams, rules, *,
                  normalize: bool = False, per_scale_tolerance: bool = False,
                  equal_template_count: bool = False) -> list[EntropyCurve]:
    """vemse under each tolerance rule in rules, one curve per rule.

    Every rule is counted in the same pair-count pass per scale, and
    curve k equals vemse under rules[k]. params.r is not read. With per_scale_tolerance the rules must share one mode: a
    scale whose channels are all constant then leaves every point None.
    """
    params.check_feasible(data.n_samples)
    chans = _zscore(data.channels) if normalize else data.channels
    radii = None if per_scale_tolerance else [resolve_tolerance(chans, rule) for rule in rules]

    values = [[] for _ in rules]
    probs = [[] for _ in rules]
    for tau in params.scales:
        cg = np.stack([coarse_grain(ch, tau) for ch in chans])
        try:
            r_abs = ([resolve_tolerance(cg, rule) for rule in rules]
                     if per_scale_tolerance else radii)
        except DegenerateToleranceError:
            points = [None] * len(rules)  # constant at this scale: undefined
        else:
            points = _curve_points(cg, params.m, params.L, r_abs, equal_template_count)
        for k, pr in enumerate(points):
            values[k].append(_log_ratio(pr))
            probs[k].append(pr)
    return [EntropyCurve(scales=list(params.scales), values=values[k], probs=probs[k],
                         radius=None if radii is None else radii[k])
            for k in range(len(rules))]


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
    per_scale_tolerance is set; a scale whose coarse-grained channels are
    all constant then has no radius and its point is None. Channels are
    used raw by default;
    normalize applies a per-channel z-score first. equal_template_count
    restricts the first pass to as many templates as the second, the
    classic sample-entropy convention; off by default, which follows the
    literal two-pass counting.

    Returns an EntropyCurve with the probability sums and, unless it was
    resolved per scale, the radius attached.
    """
    if not isinstance(data, MultichannelSeries):
        data = MultichannelSeries(data)
    if rule is None:
        rule = ToleranceRule.trace(params.r)
    return _vemse_curves(data, params, [rule], normalize=normalize,
                         per_scale_tolerance=per_scale_tolerance,
                         equal_template_count=equal_template_count)[0]


def mse(x, params: EntropyParams, rule: ToleranceRule | None = None, **flags) -> EntropyCurve:
    """Univariate multiscale sample entropy; the single-channel case of vemse."""
    return vemse(MultichannelSeries(np.asarray(x, dtype=float)), params, rule, **flags)


def sampen(x, m: int, r_abs: float, lag: int = 1, *, equal_template_count: bool = False):
    """Single-scale sample entropy with an absolute matching radius.

    Returns -ln(phi_{m+1}/phi_m) or None when either probability is zero
    or the data is too short for two templates at dimension m+1.
    """
    if r_abs <= 0:
        raise InvalidParameterError("r_abs must be > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("input contains non-finite samples")
    return _log_ratio(_curve_points(x[None, :], m, lag, [r_abs], equal_template_count)[0])


def _cdv_phi(channels, dims, lags, radius: float):
    """MMSE global probability from composite delay vectors.

    Templates run over i = 0 .. N_t - n - 1 with n = max(dims)*max(lags);
    fewer than two templates returns None.
    """
    from scipy.spatial import cKDTree  # only mmse needs it; it is slow to import

    n_t = channels[0].size
    n = max(dims) * max(lags)
    count = n_t - n
    if count < 2:
        return None
    cols = []
    for y, m_c, l_c in zip(channels, dims, lags):
        for j in range(m_c):
            cols.append(y[j * l_c: j * l_c + count])
    tpl = np.column_stack(cols)
    tree = cKDTree(tpl)
    ordered_pairs = tree.count_neighbors(tree, radius, p=np.inf)
    return int(ordered_pairs - count) / (count * (count - 1))


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
    and averages the resulting probabilities before the log ratio.

    Parameters
    ----------
    dims : sequence of int, per-channel embedding dimensions M.
    lags : sequence of int, per-channel time lags; default all ones.
    """
    if not isinstance(data, MultichannelSeries):
        data = MultichannelSeries(data)
    p = data.n_channels
    dims = [int(d) for d in dims]
    if len(dims) != p or any(d < 1 for d in dims):
        raise InvalidParameterError("dims must list a positive dimension per channel")
    lags = [1] * p if lags is None else [int(l) for l in lags]
    if len(lags) != p or any(l < 1 for l in lags):
        raise InvalidParameterError("lags must list a positive lag per channel")
    scales = [int(s) for s in scales]
    if rule is None:
        rule = ToleranceRule.trace(0.15)

    chans = _zscore(data.channels)
    radius = resolve_tolerance(chans, rule)

    values: list[float | None] = []
    probs: list[tuple[float, float] | None] = []
    for tau in scales:
        if tau < 1 or tau > data.n_samples:
            raise InvalidParameterError("scale %r out of range" % (tau,))
        cg = [coarse_grain(ch, tau) for ch in chans]
        # the pass at dims, then one per channel with its dimension
        # incremented, up to the first with fewer than two templates
        phis = []
        for bump in range(-1, p):
            phi = _cdv_phi(cg, [d + (c == bump) for c, d in enumerate(dims)], lags, radius)
            if phi is None:
                break
            phis.append(phi)
        pr = (phis[0], math.fsum(phis[1:]) / p) if len(phis) == p + 1 else None
        values.append(_log_ratio(pr))
        probs.append(pr)
    return EntropyCurve(scales=scales, values=values, probs=probs, radius=radius)
