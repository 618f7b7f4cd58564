"""Parameter sweeps, ensemble statistics, and property studies.

Every study is deterministic: realization k of channel c draws from an
RNG seeded with (base_seed, k, c), so reruns reproduce results exactly
and growing the realization count only appends realizations. Noise
channels mixed into a signal use the offset stream (base_seed, k, c+64).

Every ensemble is built by one aggregator (_ensemble). Its statistics
are taken over the defined realizations only, with the defined count
reported per point; std is the population standard deviation so a single
realization yields std = 0. Row names are unique: a sweep listing a model
twice, or a directionality pair whose rows would share a name, is refused
before any estimate is made.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import _vemse_curves, mmse, vemse
from .series import (
    EntropyParams,
    InvalidParameterError,
    MultichannelSeries,
    ToleranceRule,
    real_number,
    whole_number,
)
from .signals import (
    _FLICKER_LEAST_N,
    AR1,
    AR2,
    AR3,
    generate_ar,
    generate_flicker,
    generate_wgn,
    mix_noise,
)

__all__ = [
    "ModelBundle",
    "SweepSpec",
    "EnsembleResult",
    "TimingReport",
    "generate_channel",
    "realize_bundle",
    "run_sweep",
    "noise_robustness_study",
    "directionality_study",
    "timing_benchmark",
    "MODEL_KINDS", "ESTIMATORS", "SWEPT_PARAMETERS", "TIMED_PARAMETERS",
]

_AR_MODELS = {"ar1": AR1, "ar2": AR2, "ar3": AR3}
MODEL_KINDS = ("wgn", "flicker", "flicker+wgn") + tuple(_AR_MODELS)
ESTIMATORS = ("sampen", "mse", "mmse", "vemse")
SWEPT_PARAMETERS = ("m", "N", "r", "scale")  # what a SweepSpec varies
TIMED_PARAMETERS = ("scale", "N", "channels", "m")  # what timing_benchmark varies

_NOISE_STREAM_OFFSET = 64


def generate_channel(kind: str, n: int, seed) -> np.ndarray:
    """One unit-SD channel of the named kind, deterministic per seed."""
    if kind == "wgn":
        return generate_wgn(n, 1.0, seed)
    if kind == "flicker":
        return generate_flicker(n, 1.0, seed)
    if kind == "flicker+wgn":
        seed = seed if isinstance(seed, tuple) else (seed,)
        base = generate_flicker(n, 1.0, seed + (0,))
        white = generate_wgn(n, 1.0, seed + (1,))
        return mix_noise(base, white, 1.0)
    if kind in _AR_MODELS:
        return generate_ar(_AR_MODELS[kind], n, seed)
    raise InvalidParameterError("unknown signal kind %r" % (kind,))


@dataclass
class ModelBundle:
    """A named channel assignment, optionally with additive noise per channel."""

    name: str
    kinds: list[str]
    noise_kind: str | None = None
    noise_ratio: float = 0.0

    def __post_init__(self):
        if not self.kinds:
            raise InvalidParameterError("bundle %r has no channels" % (self.name,))
        self.noise_ratio = real_number(self.noise_ratio, "noise_ratio", inclusive=True)
        noise = [] if self.noise_kind is None else [self.noise_kind]
        for kind in [*self.kinds, *noise]:
            if kind not in MODEL_KINDS:
                raise InvalidParameterError("unknown signal kind %r" % (kind,))

    @classmethod
    def homogeneous(cls, kind: str, channels: int = 2) -> "ModelBundle":
        return cls(name=kind, kinds=[kind] * channels)

    def least_n(self) -> int:
        """The fewest samples per channel that realize_bundle can draw."""
        drawn = {*self.kinds, self.noise_kind if self.noise_ratio > 0 else None}
        return _FLICKER_LEAST_N if drawn & {"flicker", "flicker+wgn"} else 1


def realize_bundle(bundle: ModelBundle, n: int, base_seed: int, k: int) -> np.ndarray:
    """Channels (P, N) for realization k of a bundle."""
    rows = []
    for c, kind in enumerate(bundle.kinds):
        x = generate_channel(kind, n, (base_seed, k, c))
        if bundle.noise_kind is not None and bundle.noise_ratio > 0:
            noise = generate_channel(
                bundle.noise_kind, n, (base_seed, k, c + _NOISE_STREAM_OFFSET))
            x = mix_noise(x, noise, bundle.noise_ratio)
        rows.append(x)
    return np.stack(rows)


@dataclass
class SweepSpec:
    """One parameter sweep: which estimator, what varies, over which models."""

    estimator: str
    swept_parameter: str
    sweep_values: list
    bundles: list[ModelBundle]
    m: int = 2
    r: float = 0.15
    lag: int = 1
    n_samples: int = 1000
    tau: int = 1
    realizations: int = 20
    base_seed: int = 0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise InvalidParameterError("unknown estimator %r" % (self.estimator,))
        if self.swept_parameter not in SWEPT_PARAMETERS:
            raise InvalidParameterError("unknown swept parameter %r" % (self.swept_parameter,))
        if not self.sweep_values:
            raise InvalidParameterError("sweep_values must be non-empty")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise InvalidParameterError("sweep_values must be strictly increasing")
        if self.swept_parameter != "r" and any(v % 1 != 0 for v in self.sweep_values):
            raise InvalidParameterError("%s values must be whole numbers" % self.swept_parameter)
        if not self.bundles:
            raise InvalidParameterError("model_set must be non-empty")
        _check_unique([b.name for b in self.bundles])
        self.n_samples = whole_number(self.n_samples, "n_samples", low=1)
        self.realizations = whole_number(self.realizations, "realizations", low=1)
        self.base_seed = whole_number(self.base_seed, "base_seed", low=0)
        # each point's parameters, refused with the estimators' own message
        # (r must be > 0, m must be >= 1, ...) before anything is drawn
        vary = self.swept_parameter
        points = [self.sweep_values] if vary == "scale" else self.sweep_values
        for v in points:
            EntropyParams(m=int(v) if vary == "m" else self.m,
                          r=float(v) if vary == "r" else self.r, L=self.lag,
                          scales=v if vary == "scale" else [self.tau])
            if vary == "N":
                whole_number(v, "n_samples", low=1)
        least = max(b.least_n() for b in self.bundles)
        for n in self.sweep_values if vary == "N" else [self.n_samples]:
            whole_number(n, "n_samples", low=least)


@dataclass
class EnsembleResult:
    """Mean/std/defined-count per (model, sweep value) over R realizations."""

    sweep_values: list
    model_names: list[str]
    mean: list[list[float | None]]
    std: list[list[float | None]]
    defined_count: list[list[int]]
    realizations: int

    def row(self, model: str):
        i = self.model_names.index(model)
        return self.mean[i], self.std[i], self.defined_count[i]


def _check_unique(names):
    """Refuse a repeated row name: row() could reach only its first row."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidParameterError("row name %r is repeated" % (name,))


def _ensemble(rows, values, realizations) -> EnsembleResult:
    """The one builder of an EnsembleResult.

    rows are (name, samples) pairs; samples[i] holds one float or None
    per realization at sweep value i.
    """
    means, stds, counts = [], [], []
    for _, samples in rows:
        defined = [[v for v in point if v is not None] for point in samples]
        counts.append([len(d) for d in defined])
        means.append([float(np.mean(d)) if d else None for d in defined])
        stds.append([float(np.std(d)) if d else None for d in defined])
    return EnsembleResult(sweep_values=list(values), model_names=[name for name, _ in rows],
                          mean=means, std=stds, defined_count=counts,
                          realizations=realizations)


def _estimate_params(estimator, m, lag, scales, flags, name=str) -> EntropyParams:
    """An estimate's EntropyParams; mmse refuses the flags only vemse reads
    (normalize, which mmse always does, per_scale_tolerance and
    equal_template_count) when set in flags, naming each as name(key)."""
    params = EntropyParams(m=m, L=lag, scales=list(scales))
    for key in ("normalize", "per_scale_tolerance", "equal_template_count"):
        if estimator == "mmse" and flags.get(key):
            raise InvalidParameterError("mmse does not take %s" % (name(key),))
    return params


def _estimate_curves(estimator, channels, m, rules, lag, scales, **flags):
    """The one map from an estimator name to its call, on (P, N) channels.

    Returns one curve per ToleranceRule in rules, curve k under rules[k].
    sampen, mse and vemse count every rule in one pair-count pass per
    scale; mmse makes one call per rule. sampen and mse use the first
    channel only. mmse embeds every channel at dimension m and lag `lag`;
    the parameters are checked by _estimate_params.
    """
    params = _estimate_params(estimator, m, lag, scales, flags)
    if estimator == "mmse":
        p = channels.shape[0]
        return [mmse(MultichannelSeries(channels), [m] * p, rule, lags=[lag] * p,
                     scales=params.scales) for rule in rules]
    data = MultichannelSeries(channels if estimator == "vemse" else channels[:1])
    if len(rules) == 1:
        # the public entry point, so what wraps vemse sees every one-rule call
        return [vemse(data, params, rules[0], **flags)]
    return _vemse_curves(data, params, rules, **flags)


def _estimate_curve(estimator, channels, m, r, lag, scales, rule=None, **flags):
    """The curve of _estimate_curves under rule, or the covariance trace times r."""
    return _estimate_curves(estimator, channels, m, [rule or ToleranceRule.trace(r)], lag,
                            scales, **flags)[0]


def _realization(spec: SweepSpec, bundle: ModelBundle, k: int) -> list:
    """Realization k of a bundle, estimated at every sweep value.

    The data is drawn once, or once per length when N varies. A scale
    sweep is one curve; the other sweeps are one point each, at scale tau,
    and an r sweep counts all its radii in one call.
    """
    vary = spec.swept_parameter
    if vary != "N":
        chans = realize_bundle(bundle, spec.n_samples, spec.base_seed, k)
    if vary == "scale":
        return _estimate_curve(spec.estimator, chans, spec.m, spec.r, spec.lag,
                               spec.sweep_values).values
    if vary == "r":
        rules = [ToleranceRule.trace(float(v)) for v in spec.sweep_values]
        curves = _estimate_curves(spec.estimator, chans, spec.m, rules, spec.lag, [spec.tau])
        return [curve.values[0] for curve in curves]
    points = []
    for v in spec.sweep_values:
        if vary == "N":
            chans = realize_bundle(bundle, int(v), spec.base_seed, k)
        m = int(v) if vary == "m" else spec.m
        points.append(_estimate_curve(spec.estimator, chans, m, spec.r, spec.lag,
                                      [spec.tau]).values[0])
    return points


def run_sweep(spec: SweepSpec) -> EnsembleResult:
    """Run a sweep and return the ensemble statistics behind its error bars.

    Feasibility is checked per point: infeasible or matchless points are
    recorded as undefined and simply lower defined_count.
    """
    rows = [(bundle.name, list(zip(*(_realization(spec, bundle, k)
                                     for k in range(spec.realizations)))))
            for bundle in spec.bundles]
    return _ensemble(rows, spec.sweep_values, spec.realizations)


def noise_robustness_study(
    noise_kind: str = "wgn",
    ratio: float = 0.2,
    *,
    m: int = 2,
    r: float = 0.15,
    lag: int = 1,
    n_samples: int = 3000,
    scales=None,
    realizations: int = 20,
    base_seed: int = 0,
) -> EnsembleResult:
    """veMSE scale curves for noisy AR models plus the noise-only triple.

    AR(1..3) dual-channel bundles get the named noise mixed into every
    channel at the given amplitude ratio (ratio = 0 reproduces the clean
    sweep bit-for-bit). The noise-only triple {wgn, flicker, flicker+wgn}
    is included for the correlation-ordering check at large scales.
    """
    if noise_kind not in ("wgn", "flicker"):
        raise InvalidParameterError("noise_kind must be wgn or flicker")
    ratio = real_number(ratio, "ratio", inclusive=True)
    scales = list(scales) if scales is not None else list(range(1, 21))
    bundles = [
        ModelBundle.homogeneous("wgn"),
        ModelBundle.homogeneous("flicker"),
        ModelBundle.homogeneous("flicker+wgn"),
    ]
    for kind in ("ar1", "ar2", "ar3"):
        bundles.append(ModelBundle(
            name=kind if ratio == 0 else "%s+%s%d" % (kind, noise_kind, round(100 * ratio)),
            kinds=[kind, kind],
            noise_kind=noise_kind if ratio > 0 else None,
            noise_ratio=ratio,
        ))
    spec = SweepSpec(
        estimator="vemse", swept_parameter="scale", sweep_values=scales,
        bundles=bundles, m=m, r=r, lag=lag, n_samples=n_samples,
        realizations=realizations, base_seed=base_seed,
    )
    return run_sweep(spec)


def directionality_study(
    pairs,
    *,
    m: int = 2,
    r: float = 0.15,
    lag: int = 1,
    n_samples: int = 3000,
    scales=None,
    realizations: int = 20,
    base_seed: int = 0,
) -> EnsembleResult:
    """veMSE curves for ordered channel pairs and their reversals.

    Each pair (a, b) of signal kinds yields two model rows, "a|b" and
    "b|a", computed from the same underlying realizations so the only
    difference between the rows is the input order. A pair of one kind,
    or a pair listed with its reversal, would repeat a row name and is
    refused. Every parameter is checked, as a vemse scale sweep over the
    forward and reversed bundles, before anything is drawn.
    """
    pairs = [tuple(p) for p in pairs]
    if any(len(p) != 2 for p in pairs):
        raise InvalidParameterError("each pair must name exactly 2 channels")
    spec = SweepSpec(
        estimator="vemse", swept_parameter="scale",
        sweep_values=list(scales) if scales is not None else list(range(1, 21)),
        bundles=[ModelBundle("%s|%s" % kinds, list(kinds))
                 for pair in pairs for kinds in (pair, pair[::-1])],
        m=m, r=r, lag=lag, n_samples=n_samples, realizations=realizations,
        base_seed=base_seed,
    )
    scales, rows = spec.sweep_values, []
    for fwd_bundle, rev_bundle in zip(spec.bundles[::2], spec.bundles[1::2]):
        draws = [realize_bundle(fwd_bundle, spec.n_samples, spec.base_seed, k)
                 for k in range(spec.realizations)]
        fwd = [_estimate_curve("vemse", chans, m, r, lag, scales).values for chans in draws]
        rev = [_estimate_curve("vemse", chans[::-1], m, r, lag, scales).values
               for chans in draws]
        rows += [(fwd_bundle.name, list(zip(*fwd))), (rev_bundle.name, list(zip(*rev)))]
    return _ensemble(rows, scales, spec.realizations)


@dataclass
class TimingReport:
    """Wall-clock comparison of vemse vs mmse over one varied parameter."""

    vary: str
    values: list
    vemse_mean: list[float]
    vemse_median: list[float]
    mmse_mean: list[float]
    mmse_median: list[float]
    runs: int


def _timing_grid(vary, values, n_samples, channels, m, tau, r) -> list:
    """The (n, p, m, scales) of each timing point, all checked before the first draw."""
    if vary not in TIMED_PARAMETERS:
        raise InvalidParameterError("vary must be one of %s" % ", ".join(TIMED_PARAMETERS))
    if any(v % 1 != 0 for v in values):
        raise InvalidParameterError("%s values must be whole numbers" % (vary,))
    grid = []
    for v in values:
        n, p, dim, scale = (v if vary == key else fixed for key, fixed in
                            (("N", n_samples), ("channels", channels), ("m", m), ("scale", tau)))
        params = EntropyParams(m=dim, r=r, scales=[scale])
        grid.append((whole_number(n, "n_samples", low=1), whole_number(p, "channels", low=1),
                     params.m, params.scales))
    return grid


def timing_benchmark(
    vary: str,
    values,
    *,
    n_samples: int = 5000,
    channels: int = 2,
    m: int = 2,
    tau: int = 1,
    r: float = 0.15,
    runs: int = 10,
    base_seed: int = 0,
) -> TimingReport:
    """Time vemse and mmse on identical white-noise input over a grid.

    One warm-up run per point is excluded; the mean and median of the
    timed runs are both reported. Runs are strictly sequential.
    """
    values = list(values)
    grid = _timing_grid(vary, values, n_samples, channels, m, tau, r)
    runs = whole_number(runs, "runs", low=1)
    base_seed = whole_number(base_seed, "base_seed", low=0)
    ve_mean, ve_med, mm_mean, mm_med = [], [], [], []
    for n, p, dim, scales in grid:
        chans = realize_bundle(ModelBundle.homogeneous("wgn", p), n, base_seed, 0)
        times = {}
        for name in ("vemse", "mmse"):
            fn = partial(_estimate_curve, name, chans, dim, r, 1, scales)
            fn()  # warm-up, untimed
            laps = []
            for _ in range(runs):
                t0 = time.perf_counter()
                fn()
                laps.append(time.perf_counter() - t0)
            times[name] = laps
        ve_mean.append(float(np.mean(times["vemse"])))
        ve_med.append(float(statistics.median(times["vemse"])))
        mm_mean.append(float(np.mean(times["mmse"])))
        mm_med.append(float(statistics.median(times["mmse"])))
    return TimingReport(
        vary=vary, values=values,
        vemse_mean=ve_mean, vemse_median=ve_med,
        mmse_mean=mm_mean, mmse_median=mm_med,
        runs=runs,
    )
