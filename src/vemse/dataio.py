"""Record ingestion and result serialization.

On-disk format (both records and results): UTF-8 CSV, "," separator,
"\\n" line endings. Metadata lines come first and look like
"# key = value"; then a header row, then data rows. Undefined values are
serialized as empty fields. Floats are written with repr(), the shortest
decimal that round-trips, so replayed runs are bit-faithful.

The *_to_resultfile converters write the metadata their caller passes;
the curve, ensemble and timing ones add only a "kind" key (curves also
"has_negative"), no description of the run of their own. The CLI passes its full option
config, which is what replay reads back. Only curves have a reader back
to their object (curve_from_resultfile); ensemble and timing files are
read as plain tables with read_result.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .series import (
    EntropyCurve,
    InvalidParameterError,
    MultichannelSeries,
    RecordParseError,
    VemseError,
)

__all__ = [
    "ResultFile",
    "load_record",
    "write_record",
    "write_result",
    "read_result",
    "record_to_resultfile",
    "curve_to_resultfile",
    "curve_from_resultfile",
    "ensemble_to_resultfile",
    "timing_to_resultfile",
]


@dataclass
class ResultFile:
    """A metadata block plus a rectangular table of cells.

    Cells are int, float, str, or None (undefined). The metadata is what
    the writer's caller passed; a file written by the CLI holds every
    option of its run, so it can be replayed.
    """

    metadata: dict = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_cell(s: str):
    if s == "":
        return None
    if not s.isascii() or "_" in s or s != s.strip():
        # int() and float() would read "1_0", " 7" and non-ASCII digits
        return s
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def _unwritable(result: ResultFile):
    """Why read_result could not give `result` back unchanged, or None."""
    for key, value in result.metadata.items():
        key, value = str(key), str(value)
        if any(c in key + value for c in "\n\r"):
            return "metadata %r = %r holds a line break" % (key, value)
        if "=" in key:
            return "metadata key %r holds '='" % (key,)
        if key != key.strip() or value != value.strip():
            return "metadata %r = %r has leading or trailing whitespace" % (key, value)
    for label in result.columns:
        if any(c in label for c in ",\n\r"):
            return "column label %r holds a comma or a line break" % (label,)
    if result.columns and result.columns[0].startswith("#"):
        return "first column label %r would read back as metadata" % (result.columns[0],)
    return None


def write_result(result: ResultFile, path) -> None:
    """Write a ResultFile; read_result(write_result(r)) == r.

    A metadata key or value with a line break or leading or trailing
    whitespace, a metadata key with "=", a column label with a comma or a
    line break, and a first label starting with "#" would not read back,
    so they raise VemseError and nothing is written.
    """
    problem = _unwritable(result)
    if problem is not None:
        raise VemseError("cannot write %s: %s" % (path, problem))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in result.metadata.items():
                fh.write("# %s = %s\n" % (key, value))
            fh.write(",".join(result.columns) + "\n")
            for row in result.rows:
                fh.write(",".join(_format_cell(v) for v in row) + "\n")
    except OSError as exc:
        raise VemseError("cannot write %s: %s" % (path, exc)) from exc


def _read_table(path, max_lines=None):
    """Metadata, header labels and the non-empty data lines of a result file.

    Reading stops after max_lines data lines when it is given.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (line.rstrip("\n") for line in fh)
            metadata = {}
            header = next(lines, "")
            while header.startswith("#"):
                key, _, value = header[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
                header = next(lines, "")
            if header == "":
                raise RecordParseError("%s: missing header row" % (path,))
            data = list(islice(filter(None, lines), max_lines))
    except OSError as exc:
        raise VemseError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise RecordParseError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    return metadata, header.split(","), data


def read_result(path) -> ResultFile:
    metadata, columns, lines = _read_table(path)
    rows = [[_parse_cell(c) for c in line.split(",")] for line in lines]
    return ResultFile(metadata=metadata, columns=columns, rows=rows)


# -- record files (raw multichannel samples) --------------------------------

def record_to_resultfile(channels: np.ndarray, labels=None, metadata=None) -> ResultFile:
    """A (P, N) sample array as a table: one column per channel, one row per sample."""
    labels = labels or ["ch%d" % c for c in range(channels.shape[0])]
    return ResultFile(metadata=dict(metadata or {}), columns=list(labels),
                      rows=channels.T.tolist())


def write_record(series: MultichannelSeries, path) -> None:
    """Write a multichannel record: one column per channel, one row per sample."""
    metadata = {}
    if series.sample_rate_hz is not None:
        metadata["sample_rate_hz"] = repr(float(series.sample_rate_hz))
    write_result(record_to_resultfile(series.channels, series.channel_labels, metadata), path)


# A record cell: an ASCII decimal number, sign and exponent optional.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# The bytes that data lines of such cells may hold. np.loadtxt would also
# take whitespace-padded cells, so lines holding any other byte skip it and
# go to _bad_cell_error, which applies _DECIMAL cell by cell.
_DECIMAL_BYTES = b"0123456789eE.+-,"


def _bad_cell_error(lines, p: int, path) -> RecordParseError:
    """The error for the first ragged row or bad cell among the data lines."""
    for rno, line in enumerate(lines, 1):
        cells = line.split(",")
        if len(cells) != p:
            return RecordParseError(
                "%s: row %d has %d values, expected %d" % (path, rno, len(cells), p))
        for cno, cell in enumerate(cells, 1):
            if not _DECIMAL.fullmatch(cell) or not math.isfinite(float(cell)):
                return RecordParseError(
                    "%s: row %d, column %d: not a finite number: %r"
                    % (path, rno, cno, _parse_cell(cell)))
    return RecordParseError("%s: cannot parse the data rows" % (path,))


def _parse_samples(lines, p: int, path) -> np.ndarray:
    """Data lines of P cells each as an (n, P) array of finite floats."""
    if not ",".join(lines).encode().translate(None, _DECIMAL_BYTES):
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == p and np.isfinite(data).all():
                return data
    raise _bad_cell_error(lines, p, path)


def load_record(path, columns=None, max_rows=None, offset: int = 0) -> MultichannelSeries:
    """Load a multichannel record from CSV.

    The file is a result file (see write_result) whose header labels the
    channels and whose data rows hold one cell per channel. A cell is an
    ASCII decimal number with a finite value: an optional sign, digits
    with an optional decimal point (or a point and digits), and an
    optional exponent, as in "-0", "1.5", ".5" or "2e-3". Spaces,
    underscores, other digits, empty cells, "nan" and "inf" are refused.

    Parameters
    ----------
    columns : list of int or str, optional
        Select and order channels (indices or header labels); selection
        order becomes channel order, which matters for directionality.
    max_rows : int, optional
        Keep at most this many samples (>= 1). Only the first
        offset + max_rows data rows are read and checked; rows past them
        are never looked at.
    offset : int
        Skip this many leading samples (>= 0) before counting max_rows.
        The skipped rows are still checked.

    Ragged rows and bad cells raise RecordParseError with the offending
    row (counted over non-empty data lines) and column; an empty file
    raises RecordParseError.
    """
    if offset < 0 or (max_rows is not None and max_rows < 1):
        raise InvalidParameterError(
            "need offset >= 0 and max_rows >= 1, got %r and %r" % (offset, max_rows))
    if not os.path.exists(path):
        raise VemseError("no such record file: %s" % (path,))
    metadata, labels, lines = _read_table(path, None if max_rows is None else offset + max_rows)
    if not lines:
        raise RecordParseError("%s: no data rows" % (path,))
    p = len(labels)
    data = _parse_samples(lines, p, path)
    if columns is not None:
        sel = []
        for col in columns:
            if isinstance(col, str):
                if col not in labels:
                    raise RecordParseError("%s: no column named %r" % (path, col))
                sel.append(labels.index(col))
            else:
                if not 0 <= col < p:
                    raise RecordParseError("%s: column index %d out of range" % (path, col))
                sel.append(int(col))
        data = data[:, sel]
        labels = [labels[i] for i in sel]
    data = data[offset:]
    if data.shape[0] < 1:
        raise RecordParseError("%s: selection leaves no samples" % (path,))
    rate = metadata.get("sample_rate_hz")
    return MultichannelSeries(
        channels=data.T.copy(),
        channel_labels=labels,
        sample_rate_hz=float(rate) if rate is not None else None,
    )


# -- converters -------------------------------------------------------------

def curve_to_resultfile(curve: EntropyCurve, metadata=None) -> ResultFile:
    md = dict(metadata or {})
    md.setdefault("kind", "curve")
    md["has_negative"] = str(curve.has_negative()).lower()
    columns = ["scale", "value"]
    with_probs = curve.probs is not None
    if with_probs:
        columns += ["phi_m", "phi_m1"]
    rows = []
    for i, tau in enumerate(curve.scales):
        row = [int(tau), curve.values[i]]
        if with_probs:
            pr = curve.probs[i]
            row += [None, None] if pr is None else [float(pr[0]), float(pr[1])]
        rows.append(row)
    return ResultFile(metadata=md, columns=columns, rows=rows)


def curve_from_resultfile(rf: ResultFile) -> EntropyCurve:
    scales = [r[0] for r in rf.rows]
    values = [None if r[1] is None else float(r[1]) for r in rf.rows]
    probs = None
    if "phi_m" in rf.columns:
        i0 = rf.columns.index("phi_m")
        probs = [None if r[i0] is None else (float(r[i0]), float(r[i0 + 1]))
                 for r in rf.rows]
    return EntropyCurve(scales=scales, values=values, probs=probs)


def ensemble_to_resultfile(result, metadata=None) -> ResultFile:
    """An experiments.EnsembleResult as one row per (model, sweep value), model-major."""
    md = dict(metadata or {})
    md.setdefault("kind", "ensemble")
    columns = ["model", "sweep_value", "mean", "std", "defined_count"]
    rows = []
    for mi, model in enumerate(result.model_names):
        for vi, value in enumerate(result.sweep_values):
            rows.append([model, value, result.mean[mi][vi], result.std[mi][vi],
                         int(result.defined_count[mi][vi])])
    return ResultFile(metadata=md, columns=columns, rows=rows)


def timing_to_resultfile(report, metadata=None) -> ResultFile:
    """An experiments.TimingReport as one row per sweep value."""
    md = dict(metadata or {})
    md.setdefault("kind", "timing")
    columns = ["sweep_value", "vemse_mean_s", "vemse_median_s",
               "mmse_mean_s", "mmse_median_s", "runs"]
    rows = [[v, report.vemse_mean[i], report.vemse_median[i],
             report.mmse_mean[i], report.mmse_median[i], report.runs]
            for i, v in enumerate(report.values)]
    return ResultFile(metadata=md, columns=columns, rows=rows)
