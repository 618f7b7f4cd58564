"""Parameter sweeps, ensemble statistics, and property studies.

Every study is deterministic: realization k of channel c draws from an
RNG seeded with (base_seed, k, c), so reruns reproduce results exactly
and growing the realization count only appends realizations. Noise
channels mixed into a signal use the offset stream (base_seed, k, c+64).

Ensemble statistics are taken over the defined realizations only, with
the defined count reported per point; std is the population standard
deviation so a single realization yields std = 0.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import mmse, vemse
from .series import EntropyParams, InvalidParameterError, MultichannelSeries, ToleranceRule
from .signals import (
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
    "MODEL_KINDS",
]

_AR_MODELS = {"ar1": AR1, "ar2": AR2, "ar3": AR3}
MODEL_KINDS = ("wgn", "flicker", "flicker+wgn") + tuple(_AR_MODELS)

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
        if self.noise_ratio < 0:
            raise InvalidParameterError("noise_ratio must be >= 0")

    @classmethod
    def homogeneous(cls, kind: str, channels: int = 2, **kwargs) -> "ModelBundle":
        return cls(name=kind, kinds=[kind] * channels, **kwargs)


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
        if self.estimator not in ("sampen", "mse", "mmse", "vemse"):
            raise InvalidParameterError("unknown estimator %r" % (self.estimator,))
        if self.swept_parameter not in ("m", "N", "r", "scale"):
            raise InvalidParameterError("unknown swept parameter %r" % (self.swept_parameter,))
        if not self.sweep_values:
            raise InvalidParameterError("sweep_values must be non-empty")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise InvalidParameterError("sweep_values must be strictly increasing")
        if self.swept_parameter != "r" and any(v % 1 != 0 for v in self.sweep_values):
            raise InvalidParameterError("%s values must be whole numbers" % self.swept_parameter)
        if not self.bundles:
            raise InvalidParameterError("model_set must be non-empty")
        if self.realizations < 1:
            raise InvalidParameterError("realizations must be >= 1")


@dataclass
class EnsembleResult:
    """Mean/std/defined-count per (model, sweep value) over R realizations."""

    estimator: str
    swept_parameter: str
    sweep_values: list
    model_names: list[str]
    mean: list[list[float | None]]
    std: list[list[float | None]]
    defined_count: list[list[int]]
    realizations: int
    base_seed: int

    def row(self, model: str):
        i = self.model_names.index(model)
        return self.mean[i], self.std[i], self.defined_count[i]


def _aggregate(per_value_samples):
    """Reduce lists of (float | None) samples to mean/std/defined-count."""
    means, stds, counts = [], [], []
    for samples in per_value_samples:
        defined = [v for v in samples if v is not None]
        counts.append(len(defined))
        if defined:
            means.append(float(np.mean(defined)))
            stds.append(float(np.std(defined)))
        else:
            means.append(None)
            stds.append(None)
    return means, stds, counts


def _estimate_curve(estimator, channels, m, r, lag, scales, rule=None, **flags):
    """The one map from an estimator name to its call, on (P, N) channels.

    sampen and mse use the first channel only. mmse embeds every channel
    at dimension m and lag `lag`, and refuses the flags only vemse reads
    (per_scale_tolerance, equal_template_count). rule defaults to the
    covariance trace times r.
    """
    params = EntropyParams(m=m, r=r, L=lag, scales=list(scales))
    rule = rule or ToleranceRule.trace(r)
    if estimator == "mmse":
        for key in ("per_scale_tolerance", "equal_template_count"):
            if flags.get(key):
                raise InvalidParameterError("mmse does not take %s (--%s)"
                                            % (key, key.replace("_", "-")))
        p = channels.shape[0]
        return mmse(MultichannelSeries(channels), [m] * p, rule, lags=[lag] * p,
                    scales=params.scales)
    data = channels if estimator == "vemse" else channels[:1]
    return vemse(MultichannelSeries(data), params, rule, **flags)


def run_sweep(spec: SweepSpec) -> EnsembleResult:
    """Run a sweep and return the ensemble statistics behind its error bars.

    Feasibility is checked per point: infeasible or matchless points are
    recorded as undefined and simply lower defined_count.
    """
    values = list(spec.sweep_values)
    mean_rows, std_rows, count_rows = [], [], []
    for bundle in spec.bundles:
        if spec.swept_parameter == "scale":
            samples = [[] for _ in values]
            for k in range(spec.realizations):
                chans = realize_bundle(bundle, spec.n_samples, spec.base_seed, k)
                curve = _estimate_curve(spec.estimator, chans, spec.m, spec.r,
                                        spec.lag, values)
                for i, v in enumerate(curve.values):
                    samples[i].append(v)
        elif spec.swept_parameter == "N":
            samples = []
            for n in values:
                col = []
                for k in range(spec.realizations):
                    chans = realize_bundle(bundle, int(n), spec.base_seed, k)
                    col.append(_estimate_curve(spec.estimator, chans, spec.m,
                                               spec.r, spec.lag, [spec.tau]).values[0])
                samples.append(col)
        else:  # m or r: data fixed across sweep values, generate once
            chans_by_k = [realize_bundle(bundle, spec.n_samples, spec.base_seed, k)
                          for k in range(spec.realizations)]
            samples = []
            for v in values:
                m = int(v) if spec.swept_parameter == "m" else spec.m
                r = float(v) if spec.swept_parameter == "r" else spec.r
                samples.append([_estimate_curve(spec.estimator, chans, m, r,
                                                spec.lag, [spec.tau]).values[0]
                                for chans in chans_by_k])
        means, stds, counts = _aggregate(samples)
        mean_rows.append(means)
        std_rows.append(stds)
        count_rows.append(counts)
    return EnsembleResult(
        estimator=spec.estimator,
        swept_parameter=spec.swept_parameter,
        sweep_values=values,
        model_names=[b.name for b in spec.bundles],
        mean=mean_rows,
        std=std_rows,
        defined_count=count_rows,
        realizations=spec.realizations,
        base_seed=spec.base_seed,
    )


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
    difference between the rows is the input order.
    """
    pairs = [tuple(p) for p in pairs]
    if any(len(p) != 2 for p in pairs):
        raise InvalidParameterError("each pair must name exactly 2 channels")
    if realizations < 1:
        raise InvalidParameterError("realizations must be >= 1")
    scales = list(scales) if scales is not None else list(range(1, 21))

    names, mean_rows, std_rows, count_rows = [], [], [], []
    for a, b in pairs:
        fwd = [[] for _ in scales]
        rev = [[] for _ in scales]
        for k in range(realizations):
            chans = realize_bundle(ModelBundle("%s|%s" % (a, b), [a, b]), n_samples,
                                   base_seed, k)
            for samples, rows in ((fwd, chans), (rev, chans[::-1])):
                curve = _estimate_curve("vemse", rows, m, r, lag, scales)
                for i, v in enumerate(curve.values):
                    samples[i].append(v)
        for name, samples in (("%s|%s" % (a, b), fwd), ("%s|%s" % (b, a), rev)):
            means, stds, counts = _aggregate(samples)
            names.append(name)
            mean_rows.append(means)
            std_rows.append(stds)
            count_rows.append(counts)
    return EnsembleResult(
        estimator="vemse", swept_parameter="scale", sweep_values=scales,
        model_names=names, mean=mean_rows, std=std_rows,
        defined_count=count_rows, realizations=realizations,
        base_seed=base_seed,
    )


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
    if vary not in ("scale", "N", "channels", "m"):
        raise InvalidParameterError("vary must be one of scale, N, channels, m")
    values = list(values)
    if any(v % 1 != 0 for v in values):
        raise InvalidParameterError("%s values must be whole numbers" % (vary,))
    if runs < 1:
        raise InvalidParameterError("runs must be >= 1")
    ve_mean, ve_med, mm_mean, mm_med = [], [], [], []
    for v in values:
        n = int(v) if vary == "N" else n_samples
        p = int(v) if vary == "channels" else channels
        dim = int(v) if vary == "m" else m
        scale = int(v) if vary == "scale" else tau
        chans = realize_bundle(ModelBundle.homogeneous("wgn", p), n, base_seed, 0)
        times = {}
        for name in ("vemse", "mmse"):
            fn = partial(_estimate_curve, name, chans, dim, r, 1, [scale])
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
