"""Command-line front end: compute, sweep, generate, bench, surrogate.

Every command prints its fully resolved configuration (defaults
included) before computing, writes its data in the CSV result format,
and is byte-for-byte reproducible given an explicit seed. compute also
prints the radius its curve matched with, when one radius served every
scale. The metadata block of an output file is sufficient to replay the
run (see replay()).

Exit status: 0 success (undefined entropy points are still success),
2 invalid configuration, 3 input parse error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .dataio import (
    ResultFile,
    curve_to_resultfile,
    ensemble_to_resultfile,
    load_record,
    read_result,
    record_to_resultfile,
    timing_to_resultfile,
    write_result,
)
from .estimators import mmse, vemse
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
from .signals import shuffle_surrogate

__all__ = ["main", "console_main", "replay", "parse_values"]


class CliConfigError(VemseError):
    pass


def parse_values(spec: str):
    """Parse a value list: "a..b" (ints), "start:step:stop", or "v1,v2,...".

    start:step:stop is inclusive of stop (within rounding); values are
    rounded to 10 decimals so 0.1-stepped grids come out clean.
    """
    spec = spec.strip()
    if ".." in spec:
        a, _, b = spec.partition("..")
        try:
            lo, hi = int(a), int(b)
        except ValueError as exc:
            raise CliConfigError("bad range %r: expected int..int" % (spec,)) from exc
        if hi < lo:
            raise CliConfigError("bad range %r: end before start" % (spec,))
        return list(range(lo, hi + 1))
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliConfigError("bad range %r: expected start:step:stop" % (spec,))
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise CliConfigError("bad range %r" % (spec,)) from exc
        if step <= 0 or stop < start:
            raise CliConfigError("bad range %r: need step > 0 and stop >= start" % (spec,))
        count = int((stop - start) / step + 1e-9) + 1
        return [round(start + i * step, 10) for i in range(count)]
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            try:
                out.append(float(tok))
            except ValueError as exc:
                raise CliConfigError("bad value %r in list" % (tok,)) from exc
    if not out:
        raise CliConfigError("empty value list %r" % (spec,))
    return out


def _flag(cfg: dict, key: str) -> bool:
    return cfg.get(key, "false") == "true"


def _print_config(cfg: dict) -> None:
    for key, value in cfg.items():
        print("config: %s = %s" % (key, value))


# -- command bodies (driven by a flat string config so replay can rerun them)

def _load_input(cfg: dict) -> MultichannelSeries:
    columns = None
    if cfg.get("columns"):
        columns = []
        for tok in cfg["columns"].split(","):
            tok = tok.strip()
            columns.append(int(tok) if tok.lstrip("-").isdigit() else tok)
    max_rows = int(cfg["max_rows"]) if cfg.get("max_rows") else None
    offset = int(cfg.get("offset", "0"))
    return load_record(cfg["input"], columns=columns, max_rows=max_rows, offset=offset)


def _tolerance_rule(cfg: dict) -> ToleranceRule:
    mode = cfg.get("tolerance_mode", "covariance_trace")
    return ToleranceRule(mode=mode, value=float(cfg["r"]))


def _compute_curve(cfg: dict, data: MultichannelSeries) -> EntropyCurve:
    estimator = cfg["estimator"]
    params = EntropyParams(m=int(cfg["m"]), r=float(cfg["r"]), L=int(cfg["L"]),
                           scales=parse_values(cfg["scales"]))
    rule = _tolerance_rule(cfg)
    if estimator == "mmse":
        curve = mmse(data, [params.m] * data.n_channels, rule, scales=params.scales)
    elif estimator in ("vemse", "mse", "sampen"):
        use = data if estimator == "vemse" else MultichannelSeries(
            data.channels[:1], sample_rate_hz=data.sample_rate_hz)
        curve = vemse(use, params, rule,
                      normalize=_flag(cfg, "normalize"),
                      per_scale_tolerance=_flag(cfg, "per_scale_tolerance"),
                      equal_template_count=_flag(cfg, "equal_template_count"))
    else:
        raise CliConfigError("--estimator must be one of sampen, mse, mmse, vemse")
    return curve


def run_compute(cfg: dict) -> ResultFile:
    curve = _compute_curve(cfg, _load_input(cfg))
    return curve_to_resultfile(curve, metadata=dict(cfg))


def _bundles_from_cfg(cfg: dict):
    channels = int(cfg.get("channels", "2"))
    bundles = []
    for kind in cfg["models"].split(","):
        kind = kind.strip()
        if kind not in experiments.MODEL_KINDS:
            raise CliConfigError("unknown model kind %r (choose from %s)"
                                 % (kind, ", ".join(experiments.MODEL_KINDS)))
        bundles.append(experiments.ModelBundle.homogeneous(kind, channels))
    return bundles


def run_sweep(cfg: dict) -> ResultFile:
    spec = experiments.SweepSpec(
        estimator=cfg["estimator"],
        swept_parameter=cfg["vary"],
        sweep_values=parse_values(cfg["values"]),
        bundles=_bundles_from_cfg(cfg),
        m=int(cfg["m"]),
        r=float(cfg["r"]),
        lag=int(cfg["L"]),
        n_samples=int(cfg["n"]),
        tau=int(cfg.get("tau", "1")),
        realizations=int(cfg["realizations"]),
        base_seed=int(cfg["seed"]),
    )
    result = experiments.run_sweep(spec)
    return ensemble_to_resultfile(result, metadata=dict(cfg))


def run_generate(cfg: dict) -> ResultFile:
    kind = cfg["kind"]
    if kind not in experiments.MODEL_KINDS:
        raise CliConfigError("unknown --kind %r (choose from %s)"
                             % (kind, ", ".join(experiments.MODEL_KINDS)))
    n = int(cfg["n"])
    sd = float(cfg["sd"])
    if sd <= 0:
        raise CliConfigError("--sd must be > 0")
    seed = int(cfg["seed"])
    channels = int(cfg.get("channels", "1"))
    data = np.stack([sd * experiments.generate_channel(kind, n, (seed, 0, c))
                     for c in range(channels)])
    return record_to_resultfile(data, metadata=cfg)


def run_surrogate(cfg: dict) -> ResultFile:
    data = _load_input(cfg)
    seed = int(cfg["seed"])
    shuffled = np.stack([shuffle_surrogate(data.channels[c], (seed, c))
                         for c in range(data.n_channels)])
    return record_to_resultfile(shuffled, data.channel_labels, cfg)


def run_bench(cfg: dict) -> ResultFile:
    report = experiments.timing_benchmark(
        cfg["vary"],
        parse_values(cfg["values"]),
        n_samples=int(cfg["n"]),
        channels=int(cfg.get("channels", "2")),
        m=int(cfg["m"]),
        tau=int(cfg.get("tau", "1")),
        r=float(cfg["r"]),
        runs=int(cfg["runs"]),
        base_seed=int(cfg["seed"]),
    )
    return timing_to_resultfile(report, metadata=dict(cfg))


_RUNNERS = {
    "compute": run_compute,
    "sweep": run_sweep,
    "generate": run_generate,
    "surrogate": run_surrogate,
    "bench": run_bench,
}

# Keys consulted by each runner; replay feeds exactly these back in.
_CFG_KEYS = {
    "compute": ["command", "estimator", "input", "columns", "max_rows", "offset",
                "m", "r", "L", "scales", "tolerance_mode", "normalize",
                "per_scale_tolerance", "equal_template_count"],
    "sweep": ["command", "estimator", "vary", "values", "models", "channels",
              "m", "r", "L", "n", "tau", "realizations", "seed"],
    "generate": ["command", "kind", "n", "sd", "seed", "channels"],
    "surrogate": ["command", "input", "columns", "max_rows", "offset", "seed"],
    "bench": ["command", "vary", "values", "n", "channels", "m", "tau", "r",
              "runs", "seed"],
}


def replay(result_path, out_path) -> None:
    """Re-execute the run recorded in a result file's metadata.

    The regenerated file is byte-identical to the original for every
    deterministic command (bench timings vary by nature).
    """
    rf = read_result(result_path)
    command = rf.metadata.get("command")
    if command not in _RUNNERS:
        raise CliConfigError("file %s has no replayable command metadata" % (result_path,))
    cfg = {k: rf.metadata[k] for k in _CFG_KEYS[command] if k in rf.metadata}
    write_result(_RUNNERS[command](cfg), out_path)


def _emit_plot(data_path, rf: ResultFile) -> None:
    """Write a gnuplot script next to the data file."""
    script = data_path + ".gp"
    kind = rf.metadata.get("kind", "")
    lines = ['set datafile separator ","', "set key autotitle columnhead"]
    if kind == "ensemble":
        lines += ["# one block per model; filter externally or plot mean vs sweep_value",
                  "plot '%s' using 2:3:4 with yerrorlines title 'mean±std'" % (data_path,)]
    elif kind == "timing":
        lines += ["plot '%s' using 1:2 with linespoints title 'vemse', \\" % (data_path,),
                  "     '%s' using 1:4 with linespoints title 'mmse'" % (data_path,)]
    else:
        lines += ["plot '%s' using 1:2 with linespoints title 'entropy'" % (data_path,)]
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %s" % (script,))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vemse",
        description="Multiscale entropy toolkit for multichannel time series.",
        epilog="Value lists accept a..b (integers), start:step:stop "
               "(inclusive), or comma-separated values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_entropy_flags(p):
        p.add_argument("--m", type=int, default=2, help="base embedding dimension")
        p.add_argument("--r", type=float, default=0.15,
                       help="tolerance quotient (or absolute radius with "
                            "--tolerance-mode absolute)")
        p.add_argument("--L", type=int, default=1, help="time lag")

    p = sub.add_parser("compute", help="compute an entropy curve from a record file")
    p.add_argument("--estimator", default="vemse",
                   choices=["sampen", "mse", "mmse", "vemse"])
    p.add_argument("--input", required=True, help="record CSV path")
    p.add_argument("--output", required=True, help="result CSV path")
    add_entropy_flags(p)
    p.add_argument("--scales", default="1", help="scale list, e.g. 1..20")
    p.add_argument("--tolerance-mode", default="covariance_trace",
                   choices=["covariance_trace", "absolute"])
    p.add_argument("--columns", default="", help="channel selection (labels or indices)")
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--per-scale-tolerance", action="store_true")
    p.add_argument("--equal-template-count", action="store_true")
    p.add_argument("--emit-plot", action="store_true")

    p = sub.add_parser("sweep", help="ensemble parameter sweep on synthetic models")
    p.add_argument("--estimator", default="vemse",
                   choices=["sampen", "mse", "mmse", "vemse"])
    p.add_argument("--vary", required=True, choices=["m", "N", "r", "scale"])
    p.add_argument("--values", required=True)
    p.add_argument("--models", default="wgn,flicker,ar1,ar2,ar3")
    p.add_argument("--channels", type=int, default=2)
    add_entropy_flags(p)
    p.add_argument("--n", type=int, default=1000, help="samples per channel")
    p.add_argument("--tau", type=int, default=1, help="fixed scale when not swept")
    p.add_argument("--realizations", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-plot", action="store_true")

    p = sub.add_parser("generate", help="write a synthetic record file")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sd", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--output", required=True)

    p = sub.add_parser("surrogate", help="shuffle-surrogate of a record file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--columns", default="")
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)

    p = sub.add_parser("bench", help="vemse vs mmse wall-clock benchmark")
    p.add_argument("--vary", required=True, choices=["scale", "N", "channels", "m"])
    p.add_argument("--values", required=True)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--r", type=float, default=0.15)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-plot", action="store_true")

    p = sub.add_parser("replay", help="re-run a result file from its metadata")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    return parser


def _validate_common(args) -> None:
    for flag, value, low in (("--m", getattr(args, "m", None), 1),
                             ("--L", getattr(args, "L", None), 1),
                             ("--n", getattr(args, "n", None), 1),
                             ("--channels", getattr(args, "channels", None), 1),
                             ("--realizations", getattr(args, "realizations", None), 1),
                             ("--runs", getattr(args, "runs", None), 1),
                             ("--max-rows", getattr(args, "max_rows", None), 1),
                             ("--offset", getattr(args, "offset", None), 0)):
        if value is not None and value < low:
            raise CliConfigError("%s must be >= %d, got %d" % (flag, low, value))
    r = getattr(args, "r", None)
    if r is not None and r <= 0:
        raise CliConfigError("--r must be > 0, got %r" % (r,))


def _cfg_from_args(args) -> dict:
    cfg = {"command": args.command}
    if args.command == "compute":
        cfg.update(estimator=args.estimator, input=args.input,
                   columns=args.columns,
                   max_rows="" if args.max_rows is None else str(args.max_rows),
                   offset=str(args.offset), m=str(args.m), r=repr(args.r),
                   L=str(args.L), scales=args.scales,
                   tolerance_mode=args.tolerance_mode,
                   normalize=str(args.normalize).lower(),
                   per_scale_tolerance=str(args.per_scale_tolerance).lower(),
                   equal_template_count=str(args.equal_template_count).lower())
    elif args.command == "sweep":
        cfg.update(estimator=args.estimator, vary=args.vary, values=args.values,
                   models=args.models, channels=str(args.channels),
                   m=str(args.m), r=repr(args.r), L=str(args.L),
                   n=str(args.n), tau=str(args.tau),
                   realizations=str(args.realizations), seed=str(args.seed))
    elif args.command == "generate":
        cfg.update(kind=args.kind, n=str(args.n), sd=repr(args.sd),
                   seed=str(args.seed), channels=str(args.channels))
    elif args.command == "surrogate":
        cfg.update(input=args.input, columns=args.columns,
                   max_rows="" if args.max_rows is None else str(args.max_rows),
                   offset=str(args.offset), seed=str(args.seed))
    elif args.command == "bench":
        cfg.update(vary=args.vary, values=args.values, n=str(args.n),
                   channels=str(args.channels), m=str(args.m),
                   tau=str(args.tau), r=repr(args.r), runs=str(args.runs),
                   seed=str(args.seed))
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            replay(args.input, args.output)
            print("wrote %s" % (args.output,))
            return 0
        _validate_common(args)
        cfg = _cfg_from_args(args)
        _print_config(cfg)
        if args.command == "compute":
            curve = _compute_curve(cfg, _load_input(cfg))
            if curve.radius is not None:
                print("config: resolved_radius = %r" % (curve.radius,))
            result = curve_to_resultfile(curve, metadata=dict(cfg))
        else:
            result = _RUNNERS[args.command](cfg)
        write_result(result, args.output)
        print("wrote %s" % (args.output,))
        if getattr(args, "emit_plot", False):
            _emit_plot(args.output, result)
        return 0
    except RecordParseError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3
    except (CliConfigError, InvalidParameterError, DegenerateToleranceError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except VemseError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
