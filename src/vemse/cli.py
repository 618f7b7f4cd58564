"""Command-line front end: compute, sweep, generate, bench, surrogate, replay.

Each subcommand's options are declared once, in _OPTIONS; the flags, the
echoed configuration, the metadata and replay all derive from it. Every
run checks its options, prints its fully resolved configuration (defaults
included) before computing, writes its data in the CSV result format,
and is byte-for-byte reproducible given an explicit seed. compute also
prints the radius its curve matched with, when one radius served every
scale. The metadata block of an output file is sufficient to replay the
run (see replay()), which goes through the same checks and echo.

Exit status: 0 success (undefined entropy points are still success),
2 invalid configuration, 3 input parse error.
"""
from __future__ import annotations

import argparse
import re
import sys
from typing import NamedTuple

import numpy as np

from . import experiments
from .dataio import (
    _DECIMAL,
    ResultFile,
    curve_to_resultfile,
    ensemble_to_resultfile,
    load_record,
    read_result,
    record_to_resultfile,
    timing_to_resultfile,
    write_result,
)
from .estimators import vemse  # noqa: F401  kept bound: the benchmark tracer wraps it here
from .series import (
    DegenerateToleranceError,
    InvalidParameterError,
    MultichannelSeries,
    ToleranceRule,
    VemseError,
)
from .signals import shuffle_surrogate

__all__ = ["main", "console_main", "replay", "parse_values"]


class CliConfigError(VemseError):
    pass


_INT = re.compile(r"[+-]?[0-9]+")


def _int(text: str):
    """text as an int when it is written [+-]?[0-9]+, else None."""
    try:
        return int(text) if _INT.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def parse_values(spec: str):
    """Parse a value list: "a..b" (ints), "start:step:stop", or "v1,v2,...".

    Items are ASCII ints or decimal numbers. start:step:stop is inclusive
    of stop (within rounding); values are rounded to 10 decimals so
    0.1-stepped grids come out clean.
    """
    spec = spec.strip()
    if ".." in spec:
        lo, hi = (_int(t.strip()) for t in spec.split("..", 1))
        if lo is None or hi is None:
            raise CliConfigError("bad range %r: expected int..int" % (spec,))
        if hi < lo:
            raise CliConfigError("bad range %r: end before start" % (spec,))
        return list(range(lo, hi + 1))
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliConfigError("bad range %r: expected start:step:stop" % (spec,))
        start, step, stop = (float(p) if _DECIMAL.fullmatch(p.strip()) else np.nan for p in parts)
        if not (step > 0 and stop >= start and np.isfinite(stop - start)):
            raise CliConfigError("bad range %r: need decimals, step > 0, stop >= start" % (spec,))
        count = int((stop - start) / step + 1e-9) + 1
        return [round(start + i * step, 10) for i in range(count)]
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        value = _int(tok)
        if value is None and _DECIMAL.fullmatch(tok):
            value = float(tok)
        if value is None:
            raise CliConfigError("bad value %r in list" % (tok,))
        out.append(value)
    if not out:
        raise CliConfigError("empty value list %r" % (spec,))
    return out


def _spec(text: str) -> str:
    """A list option (scales, values, models) as written, unpadded."""
    return text.strip()


def _columns(text: str) -> str:
    """--columns as written, unpadded; an index is written in ASCII digits."""
    for tok in text.split(","):
        if tok.strip().lstrip("-").isdigit() and not re.fullmatch(r"-?[0-9]+", tok.strip()):
            raise CliConfigError("--columns: index %r is not in ASCII digits" % (tok.strip(),))
    return text.strip()


_REQUIRED = object()


class _Opt(NamedTuple):
    """One option: --key on the command line, key in the echo and the metadata.

    A bool option is a flag; an int is written [+-]?[0-9]+ and a float as
    an ASCII decimal number. choices bound the value, or each item of a
    list option. low is the least int allowed; a float must be finite and
    greater than its low.
    """

    key: str
    type: type
    default: object = _REQUIRED
    help: str = ""
    choices: tuple = ()
    low: float | None = None


_ESTIMATOR = _Opt("estimator", str, "vemse", choices=("sampen", "mse", "mmse", "vemse"))
_M = _Opt("m", int, 2, "base embedding dimension", low=1)
_R = _Opt("r", float, 0.15, "tolerance quotient (or absolute radius with "
          "--tolerance-mode absolute)", low=0)
_L = _Opt("L", int, 1, "time lag", low=1)
_SEED = _Opt("seed", int, 0, low=0)
_RECORD = (
    _Opt("input", str, help="record CSV path"),
    _Opt("columns", _columns, "", "channel selection (labels or indices)"),
    _Opt("max_rows", int, None, low=1),
    _Opt("offset", int, 0, low=0),
)

# Each subcommand's options, in the order they are echoed and written as
# metadata. Every subcommand also takes --output, which is not replayed.
_OPTIONS = {
    "compute": (_ESTIMATOR,) + _RECORD + (
        _M, _R, _L,
        _Opt("scales", _spec, "1", "scale list, e.g. 1..20"),
        _Opt("tolerance_mode", str, "covariance_trace",
             choices=("covariance_trace", "absolute")),
        _Opt("normalize", bool, False),
        _Opt("per_scale_tolerance", bool, False),
        _Opt("equal_template_count", bool, False),
    ),
    "sweep": (
        _ESTIMATOR,
        _Opt("vary", str, choices=("m", "N", "r", "scale")),
        _Opt("values", _spec),
        _Opt("models", _spec, "wgn,flicker,ar1,ar2,ar3", choices=experiments.MODEL_KINDS),
        _Opt("channels", int, 2, low=1),
        _M, _R, _L,
        _Opt("n", int, 1000, "samples per channel", low=1),
        _Opt("tau", int, 1, "fixed scale when not swept", low=1),
        _Opt("realizations", int, 20, low=1),
        _SEED,
    ),
    "generate": (
        _Opt("kind", str, choices=experiments.MODEL_KINDS),
        _Opt("n", int, low=1),
        _Opt("sd", float, 1.0, low=0),
        _SEED,
        _Opt("channels", int, 1, low=1),
    ),
    "surrogate": _RECORD + (_SEED,),
    "bench": (
        _Opt("vary", str, choices=("scale", "N", "channels", "m")),
        _Opt("values", _spec),
        _Opt("n", int, 5000, low=1),
        _Opt("channels", int, 2, low=1),
        _M,
        _Opt("tau", int, 1, low=1),
        _R,
        _Opt("runs", int, 10, low=1),
        _SEED,
    ),
    "replay": (_Opt("input", str, help="result CSV to re-run"),),
}

_SUMMARIES = {
    "compute": "compute an entropy curve from a record file",
    "sweep": "ensemble parameter sweep on synthetic models",
    "generate": "write a synthetic record file",
    "surrogate": "shuffle-surrogate of a record file",
    "bench": "vemse vs mmse wall-clock benchmark",
    "replay": "re-run a result file from its metadata",
}
_PLOTTED = ("compute", "sweep", "bench")


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _text(value) -> str:
    """An option value as the string echoed and written as metadata."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _values(cfg: dict) -> dict:
    """The typed option values of a string config, checked against the table.

    The one converter of option text, for the command line and replay.
    """
    values = {}
    for opt in _OPTIONS[cfg["command"]]:
        flag, text = _flag_name(opt.key), cfg[opt.key]
        if opt.type is bool:
            if text not in ("true", "false"):
                raise CliConfigError("%s must be true or false, got %r" % (flag, text))
            value = text == "true"
        elif text == "" and opt.default is None:
            value = None
        elif opt.type is float:
            value = float(text) if _DECIMAL.fullmatch(text) else np.nan
            if not (value > opt.low and np.isfinite(value)):
                raise CliConfigError("%s must be finite and > %g, written as a decimal "
                                     "number, got %r" % (flag, opt.low, text))
        elif opt.type is int:
            value = _int(text)
            if value is None:
                raise CliConfigError("%s: %r is not a valid int" % (flag, text))
            if opt.low is not None and value < opt.low:
                raise CliConfigError("%s must be >= %d, got %d" % (flag, opt.low, value))
        else:
            value = opt.type(text)
        if opt.choices:
            items = value.split(",") if opt.type is _spec else [value]
            for item in items:
                if item.strip() not in opt.choices:
                    raise CliConfigError("%s must be one of %s, got %r"
                                         % (flag, ", ".join(opt.choices), item))
        values[opt.key] = value
    return values


# -- command bodies: each takes the typed values and the string config it
# writes as metadata, so replay reruns them from a result file

def _load_input(values: dict) -> MultichannelSeries:
    columns = None
    if values["columns"]:
        columns = [int(tok) if tok.lstrip("-").isdigit() else tok
                   for tok in (t.strip() for t in values["columns"].split(","))]
    return load_record(values["input"], columns=columns, max_rows=values["max_rows"],
                       offset=values["offset"])


def run_compute(values: dict, cfg: dict) -> ResultFile:
    curve = experiments._estimate_curve(
        values["estimator"], _load_input(values).channels, values["m"], values["r"],
        values["L"], parse_values(values["scales"]),
        ToleranceRule(mode=values["tolerance_mode"], value=values["r"]),
        normalize=values["normalize"], per_scale_tolerance=values["per_scale_tolerance"],
        equal_template_count=values["equal_template_count"])
    if curve.radius is not None:
        print("config: resolved_radius = %r" % (curve.radius,))
    return curve_to_resultfile(curve, metadata=cfg)


def run_sweep(values: dict, cfg: dict) -> ResultFile:
    spec = experiments.SweepSpec(
        estimator=values["estimator"],
        swept_parameter=values["vary"],
        sweep_values=parse_values(values["values"]),
        bundles=[experiments.ModelBundle.homogeneous(kind.strip(), values["channels"])
                 for kind in values["models"].split(",")],
        m=values["m"], r=values["r"], lag=values["L"], n_samples=values["n"],
        tau=values["tau"], realizations=values["realizations"], base_seed=values["seed"])
    return ensemble_to_resultfile(experiments.run_sweep(spec), metadata=cfg)


def run_generate(values: dict, cfg: dict) -> ResultFile:
    bundle = experiments.ModelBundle.homogeneous(values["kind"], values["channels"])
    data = values["sd"] * experiments.realize_bundle(bundle, values["n"], values["seed"], 0)
    return record_to_resultfile(data, metadata=cfg)


def run_surrogate(values: dict, cfg: dict) -> ResultFile:
    data = _load_input(values)
    shuffled = np.stack([shuffle_surrogate(data.channels[c], (values["seed"], c))
                         for c in range(data.n_channels)])
    return record_to_resultfile(shuffled, data.channel_labels, cfg)


def run_bench(values: dict, cfg: dict) -> ResultFile:
    report = experiments.timing_benchmark(
        values["vary"], parse_values(values["values"]), n_samples=values["n"],
        channels=values["channels"], m=values["m"], tau=values["tau"], r=values["r"],
        runs=values["runs"], base_seed=values["seed"])
    return timing_to_resultfile(report, metadata=cfg)


_RUNNERS = {
    "compute": run_compute,
    "sweep": run_sweep,
    "generate": run_generate,
    "surrogate": run_surrogate,
    "bench": run_bench,
}


def _run(cfg: dict, out_path) -> ResultFile:
    """Check a string config, echo it, run its command and write the result."""
    values = _values(cfg)
    for key, value in cfg.items():
        print("config: %s = %s" % (key, value))
    result = _RUNNERS[cfg["command"]](values, cfg)
    write_result(result, out_path)
    return result


def replay(result_path, out_path) -> ResultFile:
    """Re-execute the run recorded in a result file's metadata.

    Every option of the command must be in the metadata; the run is
    checked and echoed as on the command line. The regenerated file is
    byte-identical to the original for every deterministic command
    (bench timings vary by nature).
    """
    metadata = read_result(result_path).metadata
    command = metadata.get("command")
    if command not in _RUNNERS:
        raise CliConfigError("file %s has no replayable command metadata" % (result_path,))
    cfg = {"command": command}
    for opt in _OPTIONS[command]:
        if opt.key not in metadata:
            raise CliConfigError("file %s: the %s metadata has no %s"
                                 % (result_path, command, opt.key))
        cfg[opt.key] = metadata[opt.key]
    return _run(cfg, out_path)


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
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_SUMMARIES[command])
        for opt in options:
            if opt.type is bool:
                p.add_argument(_flag_name(opt.key), action="store_true", help=opt.help)
                continue
            required = opt.default is _REQUIRED
            # the text is kept as typed: _values converts and checks it
            p.add_argument(_flag_name(opt.key), required=required,
                           default=None if required else opt.default, help=opt.help,
                           metavar="{%s}" % ",".join(opt.choices) if opt.choices else None)
        p.add_argument("--output", required=True, help="result CSV path")
        if command in _PLOTTED:
            p.add_argument("--emit-plot", action="store_true",
                           help="also write a gnuplot script next to the output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            result = replay(args.input, args.output)
        else:
            cfg = {"command": args.command}
            cfg.update((opt.key, _text(getattr(args, opt.key)))
                       for opt in _OPTIONS[args.command])
            # echo and write each value as converted, so --r 0.20 writes r = 0.2
            cfg.update((key, _text(value)) for key, value in _values(cfg).items())
            result = _run(cfg, args.output)
        print("wrote %s" % (args.output,))
        if getattr(args, "emit_plot", False):
            _emit_plot(args.output, result)
        return 0
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
