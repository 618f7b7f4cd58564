"""Seeded synthetic-signal generators and surrogate transforms.

All generators are pure functions of (parameters, seed) built on
numpy's default_rng (PCG64). Seeds may be integers or tuples of
integers; experiment code derives per-channel sub-streams as
(base_seed, realization, channel), so any port that reproduces PCG64
sequences reproduces every ensemble here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import InvalidParameterError, real_number, whole_number

__all__ = [
    "ArModel",
    "AR1",
    "AR2",
    "AR3",
    "generate_wgn",
    "generate_flicker",
    "generate_ar",
    "shuffle_surrogate",
    "mix_noise",
]


@dataclass(frozen=True)
class ArModel:
    """Autoregressive model x_t = sum_i a_i x_{t-i} + eps_t."""

    coefficients: tuple
    innovation_sd: float = 1.0
    burn_in: int = 1000

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "innovation_sd", real_number(self.innovation_sd, "innovation_sd"))
        object.__setattr__(self, "burn_in", whole_number(self.burn_in, "burn_in", low=0))
        if coeffs and np.any(np.abs(np.roots((1.0,) + tuple(-a for a in coeffs))) >= 1.0):
            raise InvalidParameterError(
                "AR coefficients %r are not stationary" % (coeffs,))


# Models with geometrically decaying coefficients 0.5, 0.25, 0.125,
# used throughout the synthetic studies.
AR1 = ArModel((0.5,))
AR2 = ArModel((0.5, 0.25))
AR3 = ArModel((0.5, 0.25, 0.125))


def _rescale(x: np.ndarray, sd: float) -> np.ndarray:
    """Scale x so its sample SD (ddof=1) is exactly sd; no-op for N < 2 or flat x."""
    if x.size < 2:
        return x
    s = x.std(ddof=1)
    if s == 0:
        return x
    return x * (sd / s)


def generate_wgn(n: int, sd: float = 1.0, seed=0) -> np.ndarray:
    """IID Gaussian noise, rescaled to exact sample SD."""
    n, sd = whole_number(n, "n", low=1), real_number(sd, "sd")
    x = np.random.default_rng(seed).standard_normal(n)
    return _rescale(x, sd)


# The fewest samples generate_flicker draws: one sample has only the DC
# bin, which the shaping zeroes.
_FLICKER_LEAST_N = 2


def generate_flicker(n: int, sd: float = 1.0, seed=0) -> np.ndarray:
    """1/f (flicker) noise by spectral shaping of white Gaussian noise.

    The rFFT of a white draw is multiplied by 1/sqrt(k) with the DC bin
    zeroed, giving a power spectrum proportional to 1/f, then inverted
    and rescaled to the exact sample SD.
    """
    n, sd = whole_number(n, "n", low=_FLICKER_LEAST_N), real_number(sd, "sd")
    white = np.random.default_rng(seed).standard_normal(n)
    spec = np.fft.rfft(white)
    spec[0] = 0.0
    k = np.arange(1, spec.size)
    spec[1:] /= np.sqrt(k)
    x = np.fft.irfft(spec, n=n)
    return _rescale(x, sd)


def generate_ar(model: ArModel, n: int, seed=0, target_sd: float = 1.0) -> np.ndarray:
    """Simulate an AR model, drop the burn-in, rescale to the target SD."""
    n, target_sd = whole_number(n, "n", low=1), real_number(target_sd, "target_sd")
    rng = np.random.default_rng(seed)
    eps = model.innovation_sd * rng.standard_normal(n + model.burn_in)
    x = _ar_filter(model.coefficients, eps)[model.burn_in:]
    return _rescale(x, target_sd)


def _ar_filter(coefficients, eps: np.ndarray) -> np.ndarray:
    """All-pole filter x_t = eps_t + sum_i a_i x_{t-i}, from zero initial state.

    Runs the direct-form-II-transposed recursion with the operations in the
    order of scipy.signal.lfilter([1], [1, -a_1, ..., -a_K], eps), so the
    output is bit-identical to it: y = x + z_0, z_i = (0*x + z_{i+1}) - (-a_{i+1})*y.
    """
    if not coefficients:
        return eps
    terms = list(enumerate(-a for a in coefficients))
    z = [0.0] * (len(terms) + 1)
    out = []
    for x in eps.tolist():
        y = x + z[0]
        zero = 0.0 * x
        for i, neg in terms:
            z[i] = (zero + z[i + 1]) - neg * y
        out.append(y)
    return np.array(out)


def shuffle_surrogate(x, seed=0) -> np.ndarray:
    """Uniformly random permutation of x; preserves the value multiset exactly."""
    x = np.asarray(x, dtype=float)
    return np.random.default_rng(seed).permutation(x)


def mix_noise(x, noise, amplitude_ratio: float) -> np.ndarray:
    """Add noise to x at a given amplitude ratio.

    Returns x + (ratio * SD(x)/SD(noise)) * noise, so ratio = 0.2 mixes
    noise at 20% of the signal amplitude regardless of the raw scales.
    """
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if x.shape != noise.shape:
        raise InvalidParameterError("x and noise must have equal length")
    amplitude_ratio = real_number(amplitude_ratio, "amplitude_ratio", inclusive=True)
    if amplitude_ratio == 0:
        return x.copy()
    sd_noise = noise.std(ddof=1)
    if sd_noise == 0:
        raise InvalidParameterError("noise has zero SD")
    return x + (amplitude_ratio * x.std(ddof=1) / sd_noise) * noise
