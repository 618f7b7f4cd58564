"""Record ingestion and result serialization round trips."""
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vemse import (
    EntropyCurve,
    InvalidParameterError,
    MultichannelSeries,
    RecordParseError,
    ResultFile,
    VemseError,
    load_record,
    read_result,
    write_record,
    write_result,
)
from vemse import dataio
from vemse.dataio import (
    curve_from_resultfile,
    curve_to_resultfile,
    ensemble_to_resultfile,
    record_to_resultfile,
    timing_to_resultfile,
)
from vemse.experiments import EnsembleResult, TimingReport

# signed zeros, subnormals, the largest finite floats and integer values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 3.0, -12.0, 2.0 ** 53, 1e22, 0.1]


class TestResultFileRoundTrip:
    def test_generic_round_trip(self, tmp_path):
        rf = ResultFile(
            metadata={"kind": "curve", "estimator": "vemse", "r": "0.15"},
            columns=["scale", "value"],
            rows=[[1, 1.2345678901234567], [2, None], [3, -0.5]],
        )
        path = tmp_path / "out.csv"
        write_result(rf, path)
        assert read_result(path) == rf

    def test_seventeen_digit_fidelity(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        rf = ResultFile(metadata={}, columns=["v"], rows=[[value]])
        path = tmp_path / "v.csv"
        write_result(rf, path)
        assert read_result(path).rows[0][0] == value

    def test_numpy_float_cells_round_trip(self, tmp_path):
        # numpy's float64 is a float whose repr names its type
        # ("np.float64(0.5)"); its cell must read back as the number
        rf = ResultFile(metadata={}, columns=["a", "b"],
                        rows=[[np.float64(0.5), np.float64(0.1) + np.float64(0.2)]])
        path = tmp_path / "np.csv"
        write_result(rf, path)
        assert path.read_text().splitlines()[1] == "0.5,0.30000000000000004"
        back = read_result(path)
        assert back == rf
        assert all(type(v) is float for v in back.rows[0])

    def test_undefined_serialized_empty(self, tmp_path):
        curve = EntropyCurve(scales=[29, 30], values=[0.5, None],
                             probs=[(0.1, 0.06), None])
        path = tmp_path / "c.csv"
        write_result(curve_to_resultfile(curve), path)
        text = path.read_text()
        assert "30,,,\n" in text
        back = curve_from_resultfile(read_result(path))
        assert back == curve

    def test_line_endings_and_metadata_format(self, tmp_path):
        rf = ResultFile(metadata={"key": "value"}, columns=["a"], rows=[[1]])
        path = tmp_path / "m.csv"
        write_result(rf, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"# key = value\n")


class TestEnsembleWriter:
    """ensemble files have no reader of their own; read_result reads them back."""

    def write(self, tmp_path, metadata=None):
        res = EnsembleResult(
            sweep_values=[1, 2, 3],
            model_names=["wgn", "ar3"],
            mean=[[1.0, 0.9, None], [0.5, 0.4, 0.3]],
            std=[[0.1, 0.2, None], [0.0, 0.01, 0.02]],
            defined_count=[[20.0, 20.0, 0.0], [20, 20, 20]],
            realizations=20,
        )
        path = tmp_path / "e.csv"
        write_result(ensemble_to_resultfile(res, metadata), path)
        return path

    def test_rows_are_model_major(self, tmp_path):
        rf = read_result(self.write(tmp_path))
        assert rf.columns == ["model", "sweep_value", "mean", "std", "defined_count"]
        assert [row[:2] for row in rf.rows] == [
            ["wgn", 1], ["wgn", 2], ["wgn", 3], ["ar3", 1], ["ar3", 2], ["ar3", 3]]
        assert rf.rows[4] == ["ar3", 2, 0.4, 0.01, 20]

    def test_undefined_point_is_empty_cells(self, tmp_path):
        path = self.write(tmp_path)
        assert "\nwgn,3,,,0\n" in path.read_text()
        assert read_result(path).rows[2] == ["wgn", 3, None, None, 0]

    def test_defined_count_is_written_as_int(self, tmp_path):
        path = self.write(tmp_path)
        assert "\nwgn,1,1.0,0.1,20\n" in path.read_text()
        assert all(type(row[4]) is int for row in read_result(path).rows)

    def test_metadata_is_the_callers_plus_kind(self, tmp_path):
        md = {"command": "sweep", "values": "1..3", "channels": "2"}
        written = read_result(self.write(tmp_path, md)).metadata
        assert list(written.items()) == list(md.items()) + [("kind", "ensemble")]
        assert read_result(self.write(tmp_path)).metadata == {"kind": "ensemble"}


class TestTimingWriter:
    def write(self, tmp_path, metadata=None):
        rep = TimingReport(vary="N", values=[1000, 2000],
                           vemse_mean=[0.1, 0.2], vemse_median=[0.09, 0.19],
                           mmse_mean=[0.15, 0.3], mmse_median=[0.14, 0.29], runs=10)
        path = tmp_path / "t.csv"
        write_result(timing_to_resultfile(rep, metadata), path)
        return path

    def test_one_row_per_sweep_value(self, tmp_path):
        rf = read_result(self.write(tmp_path))
        assert rf.columns == ["sweep_value", "vemse_mean_s", "vemse_median_s",
                              "mmse_mean_s", "mmse_median_s", "runs"]
        assert rf.rows == [[1000, 0.1, 0.09, 0.15, 0.14, 10],
                           [2000, 0.2, 0.19, 0.3, 0.29, 10]]

    def test_metadata_is_the_callers_plus_kind(self, tmp_path):
        md = {"command": "bench", "vary": "N", "values": "1000,2000"}
        written = read_result(self.write(tmp_path, md)).metadata
        assert list(written.items()) == list(md.items()) + [("kind", "timing")]
        assert read_result(self.write(tmp_path)).metadata == {"kind": "timing"}


class TestRecords:
    def make_record(self, tmp_path, text, name="rec.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_record_round_trip(self, tmp_path):
        series = MultichannelSeries(
            np.random.default_rng(0).standard_normal((3, 5)),
            channel_labels=["ew", "ns", "vert"], sample_rate_hz=50.0)
        path = tmp_path / "wind.csv"
        write_record(series, path)
        back = load_record(path)
        assert back.channel_labels == ["ew", "ns", "vert"]
        assert back.sample_rate_hz == 50.0
        assert np.array_equal(back.channels, series.channels)

    def test_record_metadata_is_the_callers_then_the_rate(self):
        series = MultichannelSeries(np.zeros((2, 3)), sample_rate_hz=50)
        rf = record_to_resultfile(series, {"command": "surrogate"})
        assert rf.metadata == {"command": "surrogate", "sample_rate_hz": "50.0"}
        assert rf.columns == ["ch0", "ch1"] and rf.rows.tolist() == [[0.0, 0.0]] * 3
        assert record_to_resultfile(MultichannelSeries(np.zeros(3))).metadata == {}

    def test_shape(self, tmp_path):
        path = self.make_record(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n")
        rec = load_record(path)
        assert rec.n_channels == 3
        assert rec.n_samples == 5

    def test_max_rows(self, tmp_path):
        rows = "\n".join("%d,%d" % (i, -i) for i in range(100))
        path = self.make_record(tmp_path, "x,y\n" + rows + "\n")
        rec = load_record(path, max_rows=30)
        assert rec.n_samples == 30

    def test_column_selection_reorders(self, tmp_path):
        path = self.make_record(tmp_path, "a,b\n1,10\n2,20\n")
        rec = load_record(path, columns=[1, 0])
        assert rec.channel(0).tolist() == [10.0, 20.0]
        assert rec.channel_labels == ["b", "a"]
        by_name = load_record(path, columns=["b", "a"])
        assert np.array_equal(by_name.channels, rec.channels)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = self.make_record(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(RecordParseError, match="row 2"):
            load_record(path)

    def test_non_numeric_reports_coordinates(self, tmp_path):
        path = self.make_record(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(RecordParseError, match="row 2, column 2"):
            load_record(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.make_record(tmp_path, "")
        with pytest.raises(RecordParseError):
            load_record(path)

    def test_header_only_rejected(self, tmp_path):
        path = self.make_record(tmp_path, "a,b\n")
        with pytest.raises(RecordParseError):
            load_record(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_a_compressor_suffix_is_only_a_name(self, tmp_path, suffix):
        # a plain-text record is read as text whatever its name ends with
        text = "# sample_rate_hz = 4\na,b\n1,2\n3.5,-4e-3\n"
        plain = load_record(self.make_record(tmp_path, text))
        named = load_record(self.make_record(tmp_path, text, "rec.csv" + suffix))
        assert named.channels.tobytes() == plain.channels.tobytes()
        assert (named.channel_labels, named.sample_rate_hz) == (["a", "b"], 4.0)

    def test_rows_read_back_bit_exact_at_float_edges(self, tmp_path):
        series = MultichannelSeries(np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]))
        path = tmp_path / "edges.csv"
        write_record(series, path)
        assert load_record(path).channels.tobytes() == series.channels.tobytes()

    @pytest.mark.parametrize("content", [
        b"# sample_rate_hz = 2\na,b\n1,2\n\n3,4\n5,6\n",
        b"# sample_rate_hz = 2\r\na,b\r\n1,2\r\n\r\n3,4\r\n5,6\r\n",
        b"# sample_rate_hz = 2\ra,b\r1,2\r\r3,4\r5,6\r",
        b"# sample_rate_hz = 2\na,b\r\n1,2\r3,4\n\r\n5,6",
    ], ids=["lf", "crlf", "cr", "mixed"])
    @pytest.mark.parametrize("max_rows", [None, 2])
    def test_line_breaks_are_universal(self, tmp_path, content, max_rows):
        path = tmp_path / "rec.csv"
        path.write_bytes(content)
        rec = load_record(path, max_rows=max_rows)
        assert rec.channel_labels == ["a", "b"] and rec.sample_rate_hz == 2.0
        assert rec.channels.tolist() == [[1.0, 3.0, 5.0][:max_rows], [2.0, 4.0, 6.0][:max_rows]]
        assert read_result(path).rows == [[1, 2], [3, 4], [5, 6]]


class TestRecordMemory:
    """A record read or write holds bytes and arrays, not a Python object per line or cell."""

    @staticmethod
    def peak_bytes(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def series(self):
        return MultichannelSeries(np.random.default_rng(7).standard_normal((4, 20_000)))

    def test_write_holds_one_chunk(self, tmp_path, series):
        assert self.peak_bytes(write_record, series, tmp_path / "rec.csv") < 2 * 2 ** 20

    def test_load_holds_under_two_and_a_half_file_sizes(self, tmp_path, series):
        path = tmp_path / "rec.csv"
        write_record(series, path)
        assert self.peak_bytes(load_record, path) < 2.5 * path.stat().st_size

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["1", "3", "default"])
    def test_array_and_list_rows_write_alike(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(dataio, "_CHUNK", chunk)
        table = np.array(EDGE_FLOATS[:12]).reshape(4, 3)
        written = []
        for k, rows in enumerate([table, table.tolist(), [list(row) for row in table]]):
            path = tmp_path / ("rows%d.csv" % k)
            write_result(ResultFile(columns=["a", "b", "c"], rows=rows), path)
            written.append(path.read_bytes())
        lines = [",".join(map(repr, row)) for row in table.tolist()]
        assert written == [("a,b,c\n" + "\n".join(lines) + "\n").encode()] * 3


samples = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10 ** 6, 10 ** 6).map(float))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda p: st.lists(st.lists(samples, min_size=p, max_size=p), min_size=1, max_size=40)))
def test_array_and_list_tables_write_alike(rows):
    # the array branch's one "%" per chunk writes the bytes of _format_cell's
    table = np.array(rows)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 3, dataio._CHUNK):
            mp.setattr(dataio, "_CHUNK", chunk)
            written = []
            for k, table_rows in enumerate([table, rows]):
                path = Path(tmp) / ("rows%d.csv" % k)
                write_result(ResultFile(columns=["c%d" % i for i in range(table.shape[1])],
                                        rows=table_rows), path)
                written.append(path.read_bytes())
            assert written[0] == written[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda p: st.lists(st.lists(samples, min_size=p, max_size=p), min_size=1, max_size=12)))
def test_write_then_load_record_bit_exact(rows):
    chans = np.array(rows).T
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        write_record(MultichannelSeries(chans), path)
        back = load_record(path)
    assert back.channels.tobytes() == chans.tobytes()


cells = st.one_of(
    st.text(alphabet="0123456789eE.+-", max_size=8),
    st.sampled_from(["1" * 400, "1e400", "-1e-400", "nan", "inf", "Infinity", " 7", "7\t",
                     "1_0", "\u0661", "0x10", "", "1d5"]))


def documented_cell(cell):
    """The value of a record cell under the documented grammar, or None if refused.

    Python's float() reads exactly the ASCII decimal numbers among strings
    of these characters.
    """
    if not cell or not set(cell) <= set("0123456789eE.+-"):
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@settings(max_examples=300, deadline=None)
@given(cells, st.integers(0, 1))
def test_record_cell_grammar(cell, col):
    # both the np.loadtxt path and the error locator must follow the grammar
    text = "a,b\n" + ("%s,0\n" % cell if col == 0 else "0,%s\n" % cell)
    expected = documented_cell(cell)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        path.write_text(text, encoding="utf-8")
        if expected is not None:
            got = load_record(path).channels[col, 0]
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        else:
            with pytest.raises(RecordParseError,
                               match="row 1, column %d: not a finite number" % (col + 1)):
                load_record(path)


class TestRecordParseErrors:
    """Every message load_record gives for bad data, with its coordinates."""

    @pytest.mark.parametrize("text, kwargs, message", [
        ("a,b\n1,2\n3\n", {}, "row 2 has 1 values, expected 2$"),
        ("a,b\n1,2\n3,4,5\n", {}, "row 2 has 3 values, expected 2$"),
        ("a,b\n1,2,3\n4,5,6\n", {}, "row 1 has 3 values, expected 2$"),
        ("a\n1,2\n", {"max_rows": 1}, "row 1 has 2 values, expected 1$"),
        ("a,b\n1,2\n\n3\n", {"max_rows": 2}, "row 2 has 1 values, expected 2$"),
        ("a,b\n1,2\n3,4\n5\n", {"offset": 1, "max_rows": 2}, "row 3 has 1 values"),
        ("a,b\n1,2\n3,oops\n", {}, "row 2, column 2: not a finite number: 'oops'$"),
        ("a,b\n1,2\n3,oops\n", {"offset": 1}, "row 2, column 2: not a finite number: 'oops'$"),
        ("a,b\n1,\n", {}, "row 1, column 2: not a finite number: None$"),
        ("a,b,c\n1,,2\n", {"max_rows": 1}, "row 1, column 2: not a finite number: None$"),
        ("a,b\n1,2\nnan,1\n", {}, "row 2, column 1: not a finite number: nan$"),
        ("a,b\n1,inf\n", {"max_rows": 1}, "row 1, column 2: not a finite number: inf$"),
        ("a,b\n1,-inf\n", {"offset": 0}, "row 1, column 2: not a finite number: -inf$"),
        ("a\n1e400\n", {}, "row 1, column 1: not a finite number: inf$"),
        ("a,b\n1,1_0\n", {}, "row 1, column 2: not a finite number: '1_0'$"),
        ("a,b\n1,\u0661\n", {}, "row 1, column 2: not a finite number: '\u0661'$"),
        ("a,b\n 7,1\n", {}, "row 1, column 1: not a finite number: ' 7'$"),
        ("a,b\n7 ,1\n", {"max_rows": 5}, "row 1, column 1: not a finite number: '7 '$"),
        ("a,b\n1,2\n \n", {}, "row 2 has 1 values, expected 2$"),
        ("a,b\n1,2\n", {"columns": [2]}, "column index 2 out of range$"),
        ("a,b\n1,2\n3,4\n", {"offset": 2}, "selection leaves no samples$"),
        ("a,b\n1,2\n", {"columns": [-1]}, "column index -1 out of range$"),
        ("a,b\n1,2\n", {"columns": []}, "selection leaves no channels$"),
    ])
    def test_message(self, tmp_path, text, kwargs, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RecordParseError, match=message):
            load_record(path, **kwargs)

    def test_huge_integer_cell_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a,b\n1,2\n3," + "9" * 400 + "\n")
        with pytest.raises(RecordParseError, match="row 2, column 2: not a finite number"):
            load_record(path)

    def test_rows_before_offset_are_checked(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1,x\n3,4\n5,6\n")
        with pytest.raises(RecordParseError, match="row 1, column 2"):
            load_record(path, offset=2)

    def test_rows_past_offset_plus_max_rows_are_not_read(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\noops\n")
        assert load_record(path, max_rows=3).channel(1).tolist() == [2.0, 4.0, 6.0]
        assert load_record(path, offset=1, max_rows=2).channel(0).tolist() == [3.0, 5.0]
        with pytest.raises(RecordParseError, match="row 4 has 1 values"):
            load_record(path)

    def test_integer_minus_zero_loads_as_negative_zero(self, tmp_path):
        # int("-0") made it +0.0; cells now parse as floats, keeping the sign
        path = tmp_path / "rec.csv"
        path.write_text("a\n-0\n0\n")
        assert np.signbit(load_record(path).channel(0)).tolist() == [True, False]

    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        rec = load_record(path, columns=["a"])
        assert rec.channel_labels == ["a"] and rec.channel(0).tolist() == [1.0, 3.0]

    def test_repeated_label_is_refused_when_selected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,a,b\n1,2,3\n")
        with pytest.raises(RecordParseError, match="more than one column named 'a'"):
            load_record(path, columns=["a"])
        assert load_record(path, columns=["b", 1]).channel_labels == ["b", "a"]

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(RecordParseError, match="not UTF-8"):
            load_record(path)

    @pytest.mark.parametrize("content", [b"a,\xff\n1,2\n", b"# k = \xff\na,b\n1,2\n"],
                             ids=["header", "metadata"])
    @pytest.mark.parametrize("read", [load_record, read_result], ids=["load", "read"])
    def test_not_utf8_above_the_rows_is_a_parse_error(self, tmp_path, content, read):
        path = tmp_path / "rec.csv"
        path.write_bytes(content)
        with pytest.raises(RecordParseError, match="not UTF-8"):
            read(path)

    @pytest.mark.parametrize("kwargs", [{"offset": -1}, {"max_rows": 0}])
    def test_bad_window_rejected(self, tmp_path, kwargs):
        path = tmp_path / "rec.csv"
        path.write_text("a\n1\n2\n")
        with pytest.raises(InvalidParameterError):
            load_record(path, **kwargs)

    @pytest.mark.parametrize("name, past", [("offset", -1), ("max_rows", 0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, None],
                             ids=["nan", "inf", "-inf", "fraction", "past-the-bound"])
    def test_window_takes_whole_numbers_only(self, tmp_path, name, past, bad):
        path = tmp_path / "rec.csv"
        path.write_text("a\n1\n2\n")
        refusal = "must be >=" if bad is None else "must be a whole number"
        with pytest.raises(InvalidParameterError, match="^%s %s" % (name, refusal)):
            load_record(path, **{name: past if bad is None else bad})

    @pytest.mark.parametrize("whole", [2.0, np.int64(2)], ids=["float", "numpy-int"])
    def test_window_takes_whole_floats_and_numpy_ints(self, tmp_path, whole):
        path = tmp_path / "rec.csv"
        path.write_text("a\n1\n2\n3\n4\n5\n")
        assert load_record(path, max_rows=whole, offset=whole).channels.tolist() == [[3.0, 4.0]]


    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, None],
                             ids=["fraction", "nan", "inf", "none"])
    def test_column_index_takes_whole_numbers_only(self, tmp_path, bad):
        # 1.5 loaded column 1; nan, inf and None escaped as other errors
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidParameterError, match="^column index must be a whole number"):
            load_record(path, columns=[0, bad])

    @pytest.mark.parametrize("whole", [2.0, np.int64(2)], ids=["float", "numpy-int"])
    def test_column_index_takes_whole_floats_and_numpy_ints(self, tmp_path, whole):
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        series = load_record(path, columns=[whole, 0])
        assert series.channels.tolist() == [[3.0, 6.0], [1.0, 4.0]]
        assert series.channel_labels == ["c", "a"]


class TestResultCells:
    def test_padded_underscored_and_non_ascii_cells_stay_strings(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c,d,e\n1_0, 7,\u0661,7,-2.5\n", encoding="utf-8")
        assert read_result(path).rows == [["1_0", " 7", "\u0661", 7, -2.5]]

    @pytest.mark.parametrize("rf", [
        ResultFile(columns=["a,b", "c"], rows=[[1, 2]]),
        ResultFile(columns=["a\nb"], rows=[[1]]),
        ResultFile(columns=["#a", "b"], rows=[[1, 2]]),
        ResultFile(metadata={"k\n": "v"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"k": "v\nw"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"k": "v\rw"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"a=b": "c"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={" k": "v"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"k ": "v"}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"k": "1..3 "}, columns=["a"], rows=[[1]]),
        ResultFile(metadata={"k": "\tv"}, columns=["a"], rows=[[1]]),
        # %r would write "None" for an empty cell, and numpy's repr of a float32
        ResultFile(columns=["a", "b"], rows=np.array([[1.5, None]], dtype=object)),
        ResultFile(columns=["a"], rows=np.array([[0.1]], dtype=np.float32)),
    ])
    def test_writer_refuses_what_it_cannot_read_back(self, tmp_path, rf):
        path = tmp_path / "r.csv"
        with pytest.raises(VemseError, match="cannot write"):
            write_result(rf, path)
        assert not path.exists()

    def test_equals_in_a_value_and_empty_values_round_trip(self, tmp_path):
        rf = ResultFile(metadata={"k": "a = b", "e": ""}, columns=["a"], rows=[[1]])
        path = tmp_path / "r.csv"
        write_result(rf, path)
        assert read_result(path) == rf

    def test_hash_in_a_later_label_round_trips(self, tmp_path):
        rf = ResultFile(metadata={"k": "v"}, columns=["a", "#b"], rows=[[1, 2]])
        path = tmp_path / "r.csv"
        write_result(rf, path)
        assert read_result(path) == rf
