"""Record ingestion and result serialization.

On-disk format (both records and results): UTF-8 CSV, "," separator,
"\\n" line endings. Metadata lines come first and look like
"# key = value"; then a header row, then data rows. Undefined values are
serialized as empty fields. Floats are written with repr(), the shortest
decimal that round-trips, so replayed runs are bit-faithful.

Files are read in binary: the data rows stay one bytes block until they
are parsed (records, by np.loadtxt) or split into cells (read_result).
Rows are written a chunk of _CHUNK at a time, so a record's rows can stay
its (n, P) float array and a read or write holds no Python object per
sample.

The *_to_resultfile converters write the metadata their caller passes;
the curve, ensemble and timing ones add only a "kind" key (curves also
"has_negative"), and the record one the record's "sample_rate_hz" when it
has one; none adds a description of the run of its own. The CLI passes
its full option config, which is what replay reads back. Only curves have a reader back
to their object (curve_from_resultfile); ensemble and timing files are
read as plain tables with read_result.
"""
from __future__ import annotations

import codecs
import io
import math
import re
from dataclasses import dataclass, field
from itertools import filterfalse, islice

import numpy as np

from .series import (
    EntropyCurve,
    MultichannelSeries,
    RecordParseError,
    VemseError,
    whole_number,
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

    Cells are int, float, str, or None (undefined). rows is a list of
    lists, or a 2-D float array (record_to_resultfile's, a view of the
    channels), which write_result writes a chunk at a time; read_result
    always gives lists. The metadata is what the writer's caller passed;
    a file written by the CLI holds every option of its run, so it can be
    replayed.
    """

    metadata: dict = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: list[list] | np.ndarray = field(default_factory=list)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # float() drops a numpy float64's type, which its repr names
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


# Rows formatted per fh.write. Writing holds one chunk's Python floats and
# strings, about 0.4 MiB for 4 columns; larger chunks write no faster.
_CHUNK = 1024


def write_result(result: ResultFile, path) -> None:
    """Write a ResultFile; read_result(write_result(r)) == r.

    A metadata key or value with a line break or leading or trailing
    whitespace, a metadata key with "=", a column label with a comma or a
    line break, and a first label starting with "#" would not read back,
    so they raise VemseError and nothing is written. Rows go out _CHUNK
    at a time, so writing holds Python cells for one chunk, whatever the
    table's length.
    """
    problem = _unwritable(result)
    if problem is not None:
        raise VemseError("cannot write %s: %s" % (path, problem))
    rows = result.rows
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in result.metadata.items():
                fh.write("# %s = %s\n" % (key, value))
            fh.write(",".join(result.columns) + "\n")
            for start in range(0, len(rows), _CHUNK):
                chunk = rows[start:start + _CHUNK]
                if isinstance(chunk, np.ndarray):
                    chunk = chunk.tolist()
                fh.write("".join([",".join(map(_format_cell, row)) + "\n" for row in chunk]))
    except OSError as exc:
        raise VemseError("cannot write %s: %s" % (path, exc)) from exc


# Data lines that hold no row, in a file without a lone CR
_BLANK = frozenset((b"\n", b"\r\n"))


def _lf(block: bytes) -> bytes:
    """block with "\\r\\n" and a lone "\\r" made "\\n", as universal newlines make them."""
    if b"\r" not in block:  # one memchr; replace would count each pattern first
        return block
    return block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _table(fh, path, max_lines):
    """_read_table on an open binary file; None if a lone CR ends a line it reads."""
    metadata = {}
    line = fh.readline().removeprefix(codecs.BOM_UTF8)
    while True:
        parts = line.splitlines()
        if len(parts) > 1:
            return None
        header = parts[0].decode("utf-8") if parts else ""
        if not header.startswith("#"):
            break
        key, _, value = header[1:].strip().partition("=")
        metadata[key.strip()] = value.strip()
        line = fh.readline()
    if header == "":
        raise RecordParseError("%s: missing header row" % (path,))
    if max_lines is None:
        block = fh.read()
    else:
        block = b"".join(islice(filterfalse(_BLANK.__contains__, fh), max_lines))
        if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
            return None
    return metadata, header.split(","), _lf(block)


def _read_table(path, max_lines=None):
    """Metadata, header labels and the data rows of a result file.

    The file is read in binary. The metadata and header lines are decoded
    one at a time, and a UTF-8 byte order mark at the start is dropped.
    The data rows come back undecoded, as one bytes block of lines ended
    by "\\n" ("\\r\\n" and a lone "\\r" are line breaks, as universal
    newlines make them), blank lines included. With max_lines, the block
    holds only the first max_lines non-blank lines, and the file is read
    no further unless a lone "\\r" ends one of the lines read: then it is
    read whole and split as universal newlines split it.
    """
    try:
        with open(path, "rb") as fh:
            table = _table(fh, path, max_lines)
            if table is None:
                fh.seek(0)
                table = _table(io.BytesIO(_lf(fh.read())), path, max_lines)
    except OSError as exc:
        raise VemseError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise RecordParseError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    return table


def _data_lines(block: bytes, path) -> list:
    """The non-blank lines of a _read_table data block, decoded."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordParseError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    return [line for line in text.split("\n") if line]


def read_result(path) -> ResultFile:
    metadata, columns, block = _read_table(path)
    rows = [[_parse_cell(c) for c in line.split(",")] for line in _data_lines(block, path)]
    return ResultFile(metadata=metadata, columns=columns, rows=rows)


# -- record files (raw multichannel samples) --------------------------------

def record_to_resultfile(series: MultichannelSeries, metadata=None) -> ResultFile:
    """A record as a table under the caller's metadata plus its sample_rate_hz, if any.

    Its rows are the (n, P) view series.channels.T, not a copy.
    """
    md = dict(metadata or {})
    if series.sample_rate_hz is not None:
        md["sample_rate_hz"] = repr(float(series.sample_rate_hz))
    labels = series.channel_labels or ["ch%d" % c for c in range(series.n_channels)]
    return ResultFile(metadata=md, columns=list(labels), rows=series.channels.T)


def write_record(series: MultichannelSeries, path) -> None:
    """Write a multichannel record: one column per channel, one row per sample."""
    write_result(record_to_resultfile(series), path)


# A record cell: an ASCII decimal number, sign and exponent optional.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# The bytes that a data block of such cells may hold. np.loadtxt would also
# take whitespace-padded cells, so a block holding any other byte skips it
# and goes to _bad_cell_error, which applies _DECIMAL cell by cell.
_DECIMAL_BYTES = b"0123456789eE.+-,\n"


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


def _parse_samples(block: bytes, p: int, path) -> np.ndarray:
    """A data block of lines of P cells each as an (n, P) array of finite floats.

    Lines are built only when the block fails, to locate the bad cell.
    """
    if not block.translate(None, _DECIMAL_BYTES):
        try:
            data = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == p and np.isfinite(data).all():
                return data
    raise _bad_cell_error(_data_lines(block, path), p, path)


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
        Select and order channels (at least one; whole-number indices or
        header labels); selection order becomes channel order, which
        matters for directionality.
    max_rows : int, optional
        Keep at most this many samples (>= 1). Only the first
        offset + max_rows data rows are read and checked; rows past them
        are never looked at.
    offset : int
        Skip this many leading samples (>= 0) before counting max_rows.
        The skipped rows are still checked.

    Ragged rows and bad cells raise RecordParseError with the offending
    row (counted over non-empty data lines) and column; an empty file
    raises RecordParseError, and so does a "# sample_rate_hz" line whose
    value is not such a decimal, finite and > 0, and a label in columns
    naming no column or several. A leading UTF-8 byte order mark is dropped,
    and "\\r\\n" and a lone "\\r" end lines as "\\n" does. A file that is
    not UTF-8 raises RecordParseError. A path that cannot be opened,
    missing or a directory, raises VemseError naming it.

    The data rows are read as one bytes block and parsed by one
    np.loadtxt call; lines are built only to locate a bad cell. So a
    read holds about twice the file's size at its peak.
    """
    offset = whole_number(offset, "offset", low=0)
    if max_rows is not None:
        max_rows = whole_number(max_rows, "max_rows", low=1)
    metadata, labels, block = _read_table(path, None if max_rows is None else offset + max_rows)
    if block.count(b"\n") == len(block):  # only blank lines; strip() would copy the block
        raise RecordParseError("%s: no data rows" % (path,))
    p = len(labels)
    data = _parse_samples(block, p, path)
    if columns is not None:
        sel = []
        for col in columns:
            if isinstance(col, str):
                if labels.count(col) != 1:
                    raise RecordParseError("%s: %s column named %r" % (
                        path, "no" if col not in labels else "more than one", col))
                sel.append(labels.index(col))
            else:
                col = whole_number(col, "column index")
                if not 0 <= col < p:
                    raise RecordParseError("%s: column index %d out of range" % (path, col))
                sel.append(col)
        if not sel:
            raise RecordParseError("%s: selection leaves no channels" % (path,))
        data = data[:, sel]
        labels = [labels[i] for i in sel]
    data = data[offset:]
    if data.shape[0] < 1:
        raise RecordParseError("%s: selection leaves no samples" % (path,))
    rate = metadata.get("sample_rate_hz")
    if rate is not None:
        if not (_DECIMAL.fullmatch(rate) and 0 < float(rate) < math.inf):
            raise RecordParseError("%s: sample_rate_hz must be a finite decimal > 0, got %r"
                                   % (path, rate))
        rate = float(rate)
    return MultichannelSeries(channels=data.T.copy(), channel_labels=labels,
                              sample_rate_hz=rate)


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
