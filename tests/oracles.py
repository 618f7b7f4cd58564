"""Independent brute-force reference implementations.

Written straight from the algorithm definitions with plain Python loops,
deliberately sharing no code with the package. The test suite holds the
package to these oracles at 1e-12 on small inputs.
"""
import math


def naive_coarse_grain(x, tau):
    n = len(x) // tau
    return [sum(x[j * tau: (j + 1) * tau]) / tau for j in range(n)]


def naive_chebyshev(a, b):
    return max(abs(u - v) for u, v in zip(a, b))


def naive_templates(y, dim, lag):
    count = len(y) - (dim - 1) * lag
    return [[y[i + k * lag] for k in range(dim)] for i in range(max(count, 0))]


def naive_counts(templates, radius):
    t = len(templates)
    counts = []
    for i in range(t):
        b = 0
        for j in range(t):
            if j != i and naive_chebyshev(templates[i], templates[j]) <= radius:
                b += 1
        counts.append(b)
    return counts


def naive_phi(y, dim, lag, radius, cap=None):
    """Global match probability; None when fewer than 2 templates."""
    templates = naive_templates(y, dim, lag)
    if cap is not None:
        templates = templates[:cap]
    t = len(templates)
    if t < 2:
        return None
    counts = naive_counts(templates, radius)
    return sum(b / (t - 1) for b in counts) / t


def naive_sampen(x, m, radius, lag=1):
    lo = naive_phi(x, m, lag, radius)
    hi = naive_phi(x, m + 1, lag, radius)
    if lo is None or hi is None or lo == 0 or hi == 0:
        return None
    return -math.log(hi / lo)


def naive_trace(channels):
    trace = 0.0
    for ch in channels:
        n = len(ch)
        mean = sum(ch) / n
        trace += sum((v - mean) ** 2 for v in ch) / (n - 1)
    return trace


def naive_vemse_point(channels, m, lag, radius):
    """One scale of the variational-embedding estimator (literal two-pass counts)."""
    phi_lo = 0.0
    phi_hi = 0.0
    for c, y in enumerate(channels):
        lo = naive_phi(y, m + c, lag, radius)
        hi = naive_phi(y, m + c + 1, lag, radius)
        if lo is None or hi is None:
            return None
        phi_lo += lo
        phi_hi += hi
    if phi_lo == 0 or phi_hi == 0:
        return None
    return -math.log(phi_hi / phi_lo)


def naive_vemse(channels, m, r_quotient, lag, scales):
    radius = r_quotient * naive_trace(channels)
    values = []
    for tau in scales:
        cg = [naive_coarse_grain(ch, tau) for ch in channels]
        values.append(naive_vemse_point(cg, m, lag, radius))
    return values


def _naive_zscore(ch):
    n = len(ch)
    mean = sum(ch) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in ch) / (n - 1))
    if sd == 0:
        return [v - mean for v in ch]
    return [(v - mean) / sd for v in ch]


def naive_cdv_phi(channels, dims, lags, radius):
    n_t = len(channels[0])
    n = max(dims) * max(lags)
    count = n_t - n
    if count < 2:
        return None
    cdvs = []
    for i in range(count):
        vec = []
        for y, m_c, l_c in zip(channels, dims, lags):
            for j in range(m_c):
                vec.append(y[i + j * l_c])
        cdvs.append(vec)
    counts = naive_counts(cdvs, radius)
    return sum(b / (count - 1) for b in counts) / count


def naive_cdv_pairs(channels, dims, lags, radius):
    """(templates, matching pairs) of the composite delay vectors, or None.

    The integer count behind naive_cdv_phi, which sums per-template
    fractions and so lands a few ulps from 2 * pairs / (T (T - 1)).
    """
    count = len(channels[0]) - max(dims) * max(lags)
    if count < 2:
        return None
    cdvs = [[y[i + j * l_c] for y, m_c, l_c in zip(channels, dims, lags) for j in range(m_c)]
            for i in range(count)]
    return count, sum(naive_counts(cdvs, radius)) // 2


def naive_mmse_probs(channels, dims, r_quotient, lags, scales):
    """Per scale, (phi at dims, mean phi over the P bumped passes) or None."""
    z = [_naive_zscore(ch) for ch in channels]
    radius = r_quotient * naive_trace(z)
    p = len(channels)
    probs = []
    for tau in scales:
        cg = [naive_coarse_grain(ch, tau) for ch in z]
        phi = naive_cdv_phi(cg, dims, lags, radius)
        ways = []
        ok = phi is not None
        if ok:
            for c_star in range(p):
                bumped = list(dims)
                bumped[c_star] += 1
                w = naive_cdv_phi(cg, bumped, lags, radius)
                if w is None:
                    ok = False
                    break
                ways.append(w)
        probs.append((phi, sum(ways) / p) if ok else None)
    return probs


def naive_mmse(channels, dims, r_quotient, lags, scales):
    values = []
    for pr in naive_mmse_probs(channels, dims, r_quotient, lags, scales):
        if pr is None or pr[0] == 0 or pr[1] == 0:
            values.append(None)
        else:
            values.append(-math.log(pr[1] / pr[0]))
    return values
