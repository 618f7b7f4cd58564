"""Command-line front end: compute, sweep, generate, bench, surrogate, replay.

Each subcommand is declared once, in _COMMANDS: its help line, its
options and its --emit-plot lines. The flags, the echoed configuration,
the metadata, replay and the plot script all derive from it. Every
run converts and checks all its options once, before any work (one
rule per kind of option text in _values, then its library call's own
checks in _check_call), prints its fully resolved configuration
(defaults included), writes its data in the CSV result format, and is
byte-for-byte reproducible given an explicit seed. compute also prints
the radius its curve matched with, when one radius served every scale.
The metadata block of an output file is sufficient to replay the run
(see replay()), which goes through the same conversion, checks and echo.

Exit status: 0 success (undefined entropy points are still success),
2 invalid configuration, 3 input parse error.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import NamedTuple

import numpy as np

from . import experiments
from .dataio import (
    _DECIMAL,
    ResultFile,
    _read_table,
    curve_to_resultfile,
    ensemble_to_resultfile,
    load_record,
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
    whole_number,
)
from .signals import shuffle_surrogate

__all__ = ["main", "console_main", "replay", "parse_values"]


class CliConfigError(VemseError):
    pass


_INT = re.compile(r"[+-]?[0-9]+")
_MAX_VALUES = 10**6  # the most values a range or grid may hold, counted before any is built


def _int(text: str):
    """text as an int when it is written [+-]?[0-9]+, else None."""
    try:
        return int(text) if _INT.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def parse_values(spec: str):
    """Parse a value list: "a..b" (ints), "start:step:stop", or "v1,v2,...".

    Items are ASCII ints or decimal numbers; a comma list skips empty items.
    start:step:stop is inclusive of stop (within rounding), its values
    rounded to 10 decimals so 0.1-stepped grids come out clean. A range or
    grid of more than _MAX_VALUES values is refused before it is built.
    """
    spec = spec.strip()
    if ".." not in spec and ":" not in spec:
        out = []
        for tok in _items(spec):
            value = _int(tok)
            if value is None and _DECIMAL.fullmatch(tok):
                value = float(tok)
            if value is None:
                raise CliConfigError("bad value %r in list" % (tok,))
            out.append(value)
        return out
    if ".." in spec:
        lo, hi = (_int(t.strip()) for t in spec.split("..", 1))
        if lo is None or hi is None:
            raise CliConfigError("bad range %r: expected int..int" % (spec,))
        if hi < lo:
            raise CliConfigError("bad range %r: end before start" % (spec,))
        start, step, count = lo, 1, hi - lo + 1
    else:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliConfigError("bad range %r: expected start:step:stop" % (spec,))
        start, step, stop = (float(p) if _DECIMAL.fullmatch(p.strip()) else np.nan for p in parts)
        if not (step > 0 and stop >= start and np.isfinite(stop - start)):
            raise CliConfigError("bad range %r: need decimals, step > 0, stop >= start" % (spec,))
        count = np.floor((stop - start) / step + 1e-9) + 1
    if not count <= _MAX_VALUES:  # a grid's count is inf when its quotient overflows
        raise CliConfigError("value list %r holds more than %d values" % (spec, _MAX_VALUES))
    return [round(start + i * step, 10) for i in range(int(count))]


def _items(text: str) -> list:
    """The items of a comma list, each unpadded, its empty items skipped;
    a list with no item left is refused. Every list option splits here."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise CliConfigError("empty value list %r" % (text,))
    return items


def _columns(text: str):
    """--columns as indices and labels, or None when empty; an index is ASCII digits."""
    if not text.strip():
        return None
    columns = [_int(tok) if tok.lstrip("-").isdigit() else tok for tok in _items(text)]
    if None in columns:
        raise CliConfigError("%r holds an index not written in ASCII digits" % (text.strip(),))
    return columns


_REQUIRED = object()


class _Opt(NamedTuple):
    """One option: --key on the command line, key in the echo and the metadata.

    A bool option is a flag, an int is written [+-]?[0-9]+, a float as an
    ASCII decimal number, and a list option's type is its converter. choices
    bound the value, or each item of a list, exactly. low is the least int
    allowed; a float must be finite and > 0.
    """

    key: str
    type: type
    default: object = _REQUIRED
    help: str = ""
    choices: tuple = ()
    low: int | None = None


_ESTIMATOR = _Opt("estimator", str, "vemse", choices=experiments.ESTIMATORS)
_M = _Opt("m", int, 2, "base embedding dimension", low=1)
_R = _Opt("r", float, 0.15, "tolerance quotient (or absolute radius with "
          "--tolerance-mode absolute)")
_L = _Opt("L", int, 1, "time lag", low=1)
_SEED = _Opt("seed", int, 0, low=0)
_RECORD = (
    _Opt("input", str, help="record CSV path"),
    _Opt("columns", _columns, "", "channel selection (labels or indices)"),
    _Opt("max_rows", int, None, low=1),
    _Opt("offset", int, 0, low=0),
)


class _Command(NamedTuple):
    """One subcommand: its help line, its options in the order they are echoed
    and written as metadata (it also takes --output, which is not replayed),
    and the lines --emit-plot writes after the script's header, each
    formatted with the output path; a command with none has no --emit-plot."""

    help: str
    options: tuple
    plot: tuple = ()


_COMMANDS = {
    "compute": _Command("compute an entropy curve from a record file", (_ESTIMATOR,) + _RECORD + (
        _M, _R, _L,
        _Opt("scales", parse_values, "1", "scale list, e.g. 1..20"),
        _Opt("tolerance_mode", str, "covariance_trace", choices=ToleranceRule.MODES),
        _Opt("normalize", bool, False),
        _Opt("per_scale_tolerance", bool, False),
        _Opt("equal_template_count", bool, False),
    ), ("plot '{0}' using 1:2 with linespoints title 'entropy'",)),
    "sweep": _Command("ensemble parameter sweep on synthetic models", (
        _ESTIMATOR,
        _Opt("vary", str, choices=experiments.SWEPT_PARAMETERS),
        _Opt("values", parse_values),
        _Opt("models", _items, "wgn,flicker,ar1,ar2,ar3", choices=experiments.MODEL_KINDS),
        _Opt("channels", int, 2, low=1),
        _M, _R, _L,
        _Opt("n", int, 1000, "samples per channel", low=1),
        _Opt("tau", int, 1, "fixed scale when not swept", low=1),
        _Opt("realizations", int, 20, low=1),
        _SEED,
    ), ("# one block per model; filter externally or plot mean vs sweep_value",
        "plot '{0}' using 2:3:4 with yerrorlines title 'mean±std'")),
    "generate": _Command("write a synthetic record file", (
        _Opt("kind", str, choices=experiments.MODEL_KINDS),
        _Opt("n", int, low=1),
        _Opt("sd", float, 1.0),
        _SEED,
        _Opt("channels", int, 1, low=1),
    )),
    "surrogate": _Command("shuffle-surrogate of a record file", _RECORD + (_SEED,)),
    "bench": _Command("vemse vs mmse wall-clock benchmark", (
        _Opt("vary", str, choices=experiments.TIMED_PARAMETERS),
        _Opt("values", parse_values),
        _Opt("n", int, 5000, low=1),
        _Opt("channels", int, 2, low=1),
        _M,
        _Opt("tau", int, 1, low=1),
        _R,
        _Opt("runs", int, 10, low=1),
        _SEED,
    ), ("plot '{0}' using 1:2 with linespoints title 'vemse', \\",
        "     '{0}' using 1:4 with linespoints title 'mmse'")),
    "replay": _Command("re-run a result file from its metadata",
                       (_Opt("input", str, help="result CSV to re-run"),)),
}


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _text(value) -> str:
    """An option value as the string echoed and written as metadata."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _values(cfg: dict):
    """The typed option values of a string config, and the config as echoed and written.

    The one converter of option text, for the command line and replay,
    run before any work; it ends with _check_call. A scalar is written as
    converted (--r 0.20 writes r = 0.2), a list option as typed, unpadded.
    """
    values, text = {}, {"command": cfg["command"]}
    for opt in _COMMANDS[cfg["command"]].options:
        flag, raw = _flag_name(opt.key), cfg.get(opt.key)
        if raw is None:
            raise CliConfigError("the %s metadata has no %s" % (cfg["command"], opt.key))
        if opt.type is bool:
            if raw not in ("true", "false"):
                raise CliConfigError("%s must be true or false, got %r" % (flag, raw))
            value = raw == "true"
        elif raw == "" and opt.default is None:
            value = None
        elif opt.type is float:
            value = float(raw) if _DECIMAL.fullmatch(raw) else np.nan
            if not (value > 0 and np.isfinite(value)):
                raise CliConfigError("%s must be finite and > 0, written as a decimal "
                                     "number, got %r" % (flag, raw))
        elif opt.type is int:
            value = _int(raw)
            if value is None:
                raise CliConfigError("%s: %r is not a valid int" % (flag, raw))
            value = whole_number(value, flag, low=opt.low)
        else:
            try:
                value = opt.type(raw)
            except CliConfigError as exc:
                raise CliConfigError("%s: %s" % (flag, exc)) from None
        if opt.choices:
            for item in value if isinstance(value, list) else [value]:
                if item not in opt.choices:
                    raise CliConfigError("%s must be one of %s, got %r"
                                         % (flag, ", ".join(opt.choices), item))
        values[opt.key] = value
        text[opt.key] = _text(value) if isinstance(opt.type, type) else raw.strip()
    _check_call(cfg["command"], values)
    return values, text


def _check_call(command: str, values: dict) -> None:
    """Make the checks of the command's library call before the echo and before any
    record is opened or drawn; a sweep keeps the SweepSpec it builds for run_sweep."""
    if command == "compute":
        experiments._estimate_params(values["estimator"], values["m"], values["L"],
                                     values["scales"], values, _flag_name)
    elif command == "sweep":
        values["spec"] = experiments.SweepSpec(
            estimator=values["estimator"],
            swept_parameter=values["vary"],
            sweep_values=values["values"],
            bundles=[experiments.ModelBundle.homogeneous(kind, values["channels"])
                     for kind in values["models"]],
            m=values["m"], r=values["r"], lag=values["L"], n_samples=values["n"],
            tau=values["tau"], realizations=values["realizations"], base_seed=values["seed"])
    elif command == "bench":
        experiments._timing_grid(values["vary"], values["values"], values["n"],
                                 values["channels"], values["m"], values["tau"], values["r"])


# -- command bodies: each takes the typed values and the string config it
# writes as metadata, so replay reruns them from a result file

def _load_input(values: dict) -> MultichannelSeries:
    return load_record(values["input"], columns=values["columns"], max_rows=values["max_rows"],
                       offset=values["offset"])


def run_compute(values: dict, cfg: dict) -> ResultFile:
    curve = experiments._estimate_curve(
        values["estimator"], _load_input(values).channels, values["m"], values["r"],
        values["L"], values["scales"],
        ToleranceRule(mode=values["tolerance_mode"], value=values["r"]),
        normalize=values["normalize"], per_scale_tolerance=values["per_scale_tolerance"],
        equal_template_count=values["equal_template_count"])
    if curve.radius is not None:
        print("config: resolved_radius = %r" % (curve.radius,))
    return curve_to_resultfile(curve, metadata=cfg)


def run_sweep(values: dict, cfg: dict) -> ResultFile:
    return ensemble_to_resultfile(experiments.run_sweep(values["spec"]), metadata=cfg)


def run_generate(values: dict, cfg: dict) -> ResultFile:
    bundle = experiments.ModelBundle.homogeneous(values["kind"], values["channels"])
    with np.errstate(over="ignore"):  # MultichannelSeries refuses the non-finite samples
        data = values["sd"] * experiments.realize_bundle(bundle, values["n"], values["seed"], 0)
    return record_to_resultfile(MultichannelSeries(data), metadata=cfg)


def run_surrogate(values: dict, cfg: dict) -> ResultFile:
    data = _load_input(values)
    shuffled = np.stack([shuffle_surrogate(data.channels[c], (values["seed"], c))
                         for c in range(data.n_channels)])
    return record_to_resultfile(
        MultichannelSeries(shuffled, data.channel_labels, data.sample_rate_hz), metadata=cfg)


def run_bench(values: dict, cfg: dict) -> ResultFile:
    report = experiments.timing_benchmark(
        values["vary"], values["values"], n_samples=values["n"],
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
    """Convert and check a string config, echo it, run its command and write the result."""
    values, cfg = _values(cfg)
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
    metadata = _read_table(result_path, 0)[0]
    if metadata.get("command") not in _RUNNERS:
        raise CliConfigError("file %s has no replayable command metadata" % (result_path,))
    return _run(metadata, out_path)


def _emit_plot(data_path, command: str) -> None:
    """Write a gnuplot script of the command's plot lines next to the data file."""
    script = data_path + ".gp"
    lines = ['set datafile separator ","', "set key autotitle columnhead"]
    lines += [line.format(data_path) for line in _COMMANDS[command].plot]
    with open(script, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %s" % (script,))


@functools.lru_cache(maxsize=1)  # one build per process; help reads COLUMNS when printed
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vemse",
        description="Multiscale entropy toolkit for multichannel time series.",
        epilog="Value lists accept a..b (integers), start:step:stop "
               "(inclusive), or comma-separated values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for opt in spec.options:
            if opt.type is bool:
                p.add_argument(_flag_name(opt.key), action="store_const", const="true",
                               default="false", help=opt.help)
                continue
            required = opt.default is _REQUIRED
            # every value is text, kept as typed: _values converts and checks it
            p.add_argument(_flag_name(opt.key), required=required,
                           default=None if required else _text(opt.default), help=opt.help,
                           metavar="{%s}" % ",".join(opt.choices) if opt.choices else None)
        p.add_argument("--output", required=True, help="result CSV path")
        if spec.plot:
            p.add_argument("--emit-plot", action="store_true",
                           help="also write a gnuplot script next to the output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            replay(args.input, args.output)
        else:
            _run(vars(args), args.output)
        print("wrote %s" % (args.output,))
        if getattr(args, "emit_plot", False):
            _emit_plot(args.output, args.command)
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
