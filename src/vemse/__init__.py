"""Multiscale entropy toolkit for multichannel time series.

Estimators: single-scale sample entropy (sampen), univariate multiscale
sample entropy (mse), multivariate multiscale sample entropy over
composite delay vectors (mmse), and variational-embedding multiscale
sample entropy (vemse), which assigns channel c the embedding dimension
m + c - 1 and sums the per-channel match probabilities before the log
ratio. Plus seeded signal generators, an ensemble experiment harness,
and CSV record/result I/O.
"""
from .series import (
    DegenerateToleranceError,
    EntropyCurve,
    EntropyParams,
    InvalidParameterError,
    MultichannelSeries,
    RecordParseError,
    ToleranceRule,
    VemseError,
)
from .estimators import (
    coarse_grain,
    mmse,
    mse,
    resolve_tolerance,
    sampen,
    vemse,
)
from .signals import (
    AR1,
    AR2,
    AR3,
    ArModel,
    generate_ar,
    generate_flicker,
    generate_wgn,
    mix_noise,
    shuffle_surrogate,
)
from .experiments import (
    EnsembleResult,
    ModelBundle,
    SweepSpec,
    TimingReport,
    directionality_study,
    noise_robustness_study,
    run_sweep,
    timing_benchmark,
)
from .dataio import (
    ResultFile,
    load_record,
    read_result,
    write_record,
    write_result,
)

__version__ = "0.1.0"

__all__ = [
    "AR1", "AR2", "AR3", "ArModel",
    "DegenerateToleranceError", "EnsembleResult", "EntropyCurve",
    "EntropyParams", "InvalidParameterError", "ModelBundle",
    "MultichannelSeries", "RecordParseError", "ResultFile", "SweepSpec",
    "TimingReport", "ToleranceRule", "VemseError", "coarse_grain",
    "directionality_study", "generate_ar", "generate_flicker", "generate_wgn",
    "load_record", "mix_noise", "mmse", "mse",
    "noise_robustness_study", "read_result", "resolve_tolerance", "run_sweep",
    "sampen", "shuffle_surrogate", "timing_benchmark", "vemse",
    "write_record", "write_result",
]
