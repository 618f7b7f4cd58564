"""Output checks for the benchmark's ops.

Every op's output must be byte-identical to the first output of its kind
in the run, and, for seeds with recorded digests, match the sha256
recorded in ``digests.json``. After the timed ops, workload-specific
checks test the outputs' content against independent references. A check
that finds an output wrong fails every op whose output has those bytes.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checker:
    """Counts attempted and failed ops of one run and says why each failed."""

    def __init__(self, recorded=None):
        self.recorded = dict(recorded or {})
        self.reference = {}
        self.ok = {}
        self.problems = []

    @property
    def attempted(self):
        return sum(len(v) for v in self.ok.values())

    @property
    def failed(self):
        return sum(v.count(False) for v in self.ok.values())

    def _record(self, kind, problem):
        self.ok.setdefault(kind, []).append(problem is None)
        if problem is not None:
            self.problems.append("%s: %s" % (kind, problem))

    def op(self, kind, rc, path):
        """Check one op by exit code and output bytes; True when it passed."""
        problem = None
        if rc != 0:
            problem = "exit code %r" % (rc,)
        else:
            try:
                digest = sha256_file(path)
            except OSError as exc:
                digest, problem = None, "no output: %s" % (exc,)
            if digest is not None:
                first = self.reference.setdefault(kind, digest)
                expected = self.recorded.get(kind)
                if digest != first:
                    problem = "output differs from the run's first %s output" % (kind,)
                elif expected is not None and digest != expected:
                    problem = "output sha256 %s differs from recorded %s" % (digest, expected)
        self._record(kind, problem)
        return problem is None

    def replay(self, kind, rc, path):
        """Check a replay of a `kind` output: it must reproduce the original bytes."""
        problem = None
        if rc != 0:
            problem = "replay exit code %r" % (rc,)
        else:
            try:
                if sha256_file(path) != self.reference.get(kind):
                    problem = "replay output differs from the original"
            except OSError as exc:
                problem = "no replay output: %s" % (exc,)
        self._record("replay_" + kind, problem)

    def reject(self, kind, problem):
        """Fail every op of `kind`: a content check found their common output wrong."""
        n = len(self.ok.get(kind, ()))
        self.ok[kind] = [False] * n
        self.problems.append("%s: %s" % (kind, problem))


def read_table(path):
    """(metadata, header, rows) of a vemse CSV, parsed without the package."""
    metadata, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().split("\n"):
            if header is None and line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return metadata, header, rows


def record_channels(path):
    """Channels of a record file as lists of floats, one list per column."""
    _, header, rows = read_table(path)
    return [[float(row[c]) for row in rows] for c in range(len(header))]


def _oracle_point(job):
    import oracles

    estimator, chans, m, r, lag, tau = job
    if estimator == "vemse":
        return oracles.naive_vemse(chans, m, r, lag, [tau])[0]
    return oracles.naive_mmse(chans, [m] * len(chans), r, [lag] * len(chans), [tau])[0]


def oracle_problem(record_path, curve_path, tol=1e-12):
    """Compare the two largest scales of a compute curve with the naive oracle.

    Returns None when they agree within `tol`, else a description.
    """
    md, header, rows = read_table(curve_path)
    by_scale = {int(row[0]): (float(row[1]) if row[1] else None) for row in rows}
    scales = sorted(by_scale)[-2:]
    if md["estimator"] not in ("vemse", "mmse"):
        return "no oracle for estimator %r" % (md["estimator"],)
    chans = record_channels(record_path)
    m, r, lag = int(md["m"]), float(md["r"]), int(md["L"])
    # One oracle call per scale, two at a time: the naive loops take seconds.
    jobs = [(md["estimator"], chans, m, r, lag, tau) for tau in scales]
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        want = list(pool.map(_oracle_point, jobs))
    for tau, w in zip(scales, want):
        g = by_scale[tau]
        if (g is None) != (w is None) or (g is not None and not abs(g - w) <= tol):
            return "scale %d: got %r, oracle %r" % (tau, g, w)
    return None


def permutation_problem(record_path, surrogate_path):
    """A shuffle surrogate must hold each input column's values, reordered."""
    _, in_header, in_rows = read_table(record_path)
    _, out_header, out_rows = read_table(surrogate_path)
    if out_header != in_header or len(out_rows) != len(in_rows):
        return "surrogate shape or labels differ from the input"
    for c in range(len(in_header)):
        if sorted(float(r[c]) for r in in_rows) != sorted(float(r[c]) for r in out_rows):
            return "column %d is not a permutation of the input" % (c,)
    return None


def sweep_problem(path, n_values, models, realizations):
    """An ensemble sweep has one row per (model, value) and sane defined counts."""
    _, header, rows = read_table(path)
    if header[:5] != ["model", "sweep_value", "mean", "std", "defined_count"]:
        return "unexpected header %r" % (header,)
    if [r[0] for r in rows] != [m for m in models for _ in range(n_values)]:
        return "expected %d rows per model %s" % (n_values, models)
    for row in rows:
        count = int(row[4])
        if not 0 <= count <= realizations or (count > 0) != (row[2] != ""):
            return "bad row %r" % (row,)
        if row[2] and not math.isfinite(float(row[2])):
            return "non-finite mean in row %r" % (row,)
    return None
