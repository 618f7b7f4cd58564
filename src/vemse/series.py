"""Shared domain types: multichannel records, estimator parameters, curves."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class VemseError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(VemseError, ValueError):
    """A parameter violates its precondition (non-positive tolerance, bad scale, ...)."""


class DegenerateToleranceError(VemseError):
    """Covariance-trace tolerance resolved to zero (constant input)."""


class RecordParseError(VemseError):
    """An on-disk record could not be parsed; message carries row/column context."""


def whole_number(value, name: str, low=None) -> int:
    """value as an int, for a parameter that counts: 2, 2.0 and numpy ints pass.

    A value with a fractional part (or a NaN, or no number at all) raises
    InvalidParameterError rather than being truncated, and so does one
    below low, when low is given.
    """
    try:
        whole = value % 1 == 0
    except TypeError:
        whole = False
    if not whole:
        raise InvalidParameterError("%s must be a whole number, got %r" % (name, value))
    if low is not None and value < low:
        raise InvalidParameterError("%s must be >= %d, got %r" % (name, low, value))
    return int(value)


def real_number(value, name: str, inclusive: bool = False) -> float:
    """value as a float, for a real parameter that must be finite and > 0.

    With inclusive, 0 itself passes too. A NaN, an infinity, a value past
    the bound or no number at all raises InvalidParameterError.
    """
    try:
        above = value >= 0 if inclusive else value > 0
        finite = math.isfinite(value)
    except TypeError:
        above = finite = False
    except OverflowError:  # an int past the float range
        finite = False
    if not above:
        raise InvalidParameterError("%s must be %s 0, got %r"
                                    % (name, ">=" if inclusive else ">", value))
    if not finite:
        raise InvalidParameterError("%s must be finite, got %r" % (name, value))
    return float(value)


@dataclass
class MultichannelSeries:
    """P aligned channels of real-valued samples.

    Channel order is significant and preserved: estimators that assign
    per-channel embedding dimensions do so in input order.

    Parameters
    ----------
    channels : array-like, shape (P, N) or (N,)
        One row per channel. A 1-D input is treated as a single channel.
    channel_labels : list of str, optional
    sample_rate_hz : float, optional
    """

    channels: np.ndarray
    channel_labels: list[str] | None = None
    sample_rate_hz: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.channels, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise InvalidParameterError(
                "channels must be a (P, N) array with P, N >= 1, got shape %s" % (arr.shape,))
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("channels contain non-finite samples")
        if self.channel_labels is not None and len(self.channel_labels) != arr.shape[0]:
            raise InvalidParameterError("channel_labels length does not match channel count")
        if self.sample_rate_hz is not None:
            self.sample_rate_hz = real_number(self.sample_rate_hz, "sample_rate_hz")
        self.channels = arr

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    def channel(self, c: int) -> np.ndarray:
        return self.channels[c]


@dataclass
class EntropyParams:
    """Parameters shared by every estimator.

    m is the base embedding dimension, r the tolerance quotient, L the
    time lag, and scales the inclusive list of coarse-graining factors.
    """

    m: int = 2
    r: float = 0.15
    L: int = 1
    scales: list[int] = field(default_factory=lambda: [1])

    def __post_init__(self):
        self.m = whole_number(self.m, "m", low=1)
        self.L = whole_number(self.L, "L", low=1)
        self.r = real_number(self.r, "r")
        scales = [whole_number(s, "scale") for s in self.scales]
        if not scales:
            raise InvalidParameterError("scales must be non-empty")
        if scales[0] < 1 or any(b <= a for a, b in zip(scales, scales[1:])):
            raise InvalidParameterError("scales must be strictly increasing and >= 1")
        self.scales = scales

    def check_feasible(self, n_samples: int) -> None:
        if self.scales[-1] > n_samples:
            raise InvalidParameterError(
                "largest scale %d exceeds data length %d" % (self.scales[-1], n_samples))


@dataclass
class ToleranceRule:
    """How the absolute matching radius is derived.

    ``covariance_trace`` multiplies the quotient by the trace of the
    sample covariance matrix of the channels; ``absolute`` uses the value
    as-is.
    """

    MODES = ("covariance_trace", "absolute")  # not a field: no annotation
    mode: str = "covariance_trace"
    value: float = 0.15

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise InvalidParameterError("unknown tolerance mode %r" % (self.mode,))
        self.value = real_number(self.value, "tolerance value")

    @classmethod
    def trace(cls, quotient: float) -> "ToleranceRule":
        return cls("covariance_trace", quotient)

    @classmethod
    def absolute(cls, radius: float) -> "ToleranceRule":
        return cls("absolute", radius)


@dataclass
class EntropyCurve:
    """Per-scale entropy values.

    values[i] is a float or None; None marks an undefined estimate (no
    template matches, or an infeasible scale). probs[i], when present,
    carries the (phi_m, phi_m_plus_1) probability sums behind the value.
    radius, when present, is the absolute matching radius every scale
    used; it is None when the radius was resolved per scale.
    Negative values are possible with the literal two-pass template
    counts and are reported as-is, never clamped.
    """

    scales: list[int]
    values: list[float | None]
    probs: list[tuple[float, float] | None] | None = None
    radius: float | None = None

    def __post_init__(self):
        if len(self.scales) != len(self.values):
            raise InvalidParameterError("scales and values length mismatch")

    def has_negative(self) -> bool:
        return any(v is not None and v < 0 for v in self.values)
