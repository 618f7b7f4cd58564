"""CLI behaviour: exit codes, determinism, config echo, replay."""
import argparse
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from vemse import (
    MultichannelSeries,
    ToleranceRule,
    coarse_grain,
    load_record,
    read_result,
    resolve_tolerance,
    write_record,
)
import vemse.cli
import vemse.dataio
from vemse.cli import (
    _COMMANDS,
    CliConfigError,
    _build_parser,
    _columns,
    _items,
    main,
    parse_values,
    replay,
)

from oracles import naive_mmse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echoed(stdout):
    """The (key, value) pairs of the config: lines, in order."""
    return [tuple(line[len("config: "):].split(" = ", 1))
            for line in stdout.splitlines() if line.startswith("config: ")]


@pytest.fixture
def record(tmp_path, capsys):
    path = tmp_path / "rec.csv"
    code = main(["generate", "--kind", "ar3", "--n", "400", "--channels", "2",
                 "--seed", "7", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestParseValues:
    def test_int_range(self):
        assert parse_values("1..5") == [1, 2, 3, 4, 5]

    def test_step_range(self):
        assert parse_values("0.1:0.1:0.5") == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_comma_list(self):
        assert parse_values("2,4,8") == [2, 4, 8]

    def test_bad_spec(self):
        with pytest.raises(CliConfigError):
            parse_values("1..x")
        with pytest.raises(CliConfigError):
            parse_values("5..1")
        # items follow the ASCII int and decimal grammar of record cells
        for spec in ("1_0", "1..1_0", "\u0663", "2,nan", "0:0.1_0:1", "0:0.1:1e999"):
            with pytest.raises(CliConfigError):
                parse_values(spec)
        assert parse_values(" 1 .. 3 ") == [1, 2, 3]
        assert parse_values(" 0.5 , 2 ") == [0.5, 2]

    def test_empty_items_and_two_part_grids(self):
        assert parse_values("1,,2") == [1, 2]
        for spec in ("", ",", " , "):
            with pytest.raises(CliConfigError, match="empty value list"):
                parse_values(spec)
        with pytest.raises(CliConfigError, match="expected start:step:stop"):
            parse_values("1:2")

    @pytest.mark.parametrize("spec", ["1..99999999999999999999", "1..10000000000000",
                                      "0:1e-300:1e300", "0:1e-12:1e12"])
    def test_lists_past_the_bound_are_refused_unbuilt(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(CliConfigError, match="holds more than 1000000 values"):
                parse_values(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(vemse.cli, "_MAX_VALUES", 5)
        assert parse_values("1..5") == [1, 2, 3, 4, 5]
        assert parse_values("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]
        for spec in ("1..6", "0:0.2:1"):
            with pytest.raises(CliConfigError, match="holds more than 5 values"):
                parse_values(spec)


class TestCompute:
    def test_happy_path_and_config_echo(self, record, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, stdout, _ = run(capsys, "compute", "--estimator", "vemse",
                              "--input", str(record), "--output", str(out),
                              "--m", "2", "--r", "0.15", "--scales", "1..5")
        assert code == 0
        assert "config: estimator = vemse" in stdout
        assert "config: resolved_radius = " in stdout
        rf = read_result(out)
        assert rf.columns[:2] == ["scale", "value"]
        assert len(rf.rows) == 5

    def test_invalid_r_exits_2_naming_flag(self, record, tmp_path, capsys):
        code, _, stderr = run(capsys, "compute", "--input", str(record),
                              "--output", str(tmp_path / "x.csv"), "--r", "0")
        assert code == 2
        assert "--r" in stderr

    def test_parse_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        code, _, stderr = run(capsys, "compute", "--input", str(bad),
                              "--output", str(tmp_path / "x.csv"))
        assert code == 3
        assert "row" in stderr

    @pytest.mark.parametrize("content, where", [
        (b"a,b\n1,2\n3," + b"9" * 400 + b"\n", "row 2, column 2: not a finite number"),
        (b"a,b\n1,1_0\n", "row 1, column 2: not a finite number: '1_0'"),
        (b"a,b\n 7,1\n", "row 1, column 1: not a finite number: ' 7'"),
        (b"a,b\n1,\xff\n", "not UTF-8"),
    ], ids=["huge-integer", "underscore", "padded", "not-utf8"])
    def test_bad_cells_exit_3_with_coordinates(self, tmp_path, capsys, content, where):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code, _, stderr = run(capsys, "compute", "--input", str(bad),
                              "--output", str(tmp_path / "x.csv"))
        assert code == 3
        assert where in stderr
        assert "Traceback" not in stderr

    def test_negative_offset_exits_2(self, record, tmp_path, capsys):
        code, _, stderr = run(capsys, "compute", "--input", str(record), "--offset", "-1",
                              "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--offset" in stderr

    @pytest.mark.parametrize("argv, want, message", [
        (["--columns", "5"], 3, "column index 5 out of range"),
        (["--offset", "400"], 3, "selection leaves no samples"),
        (["--scales", "1:2"], 2, "--scales: bad range '1:2': expected start:step:stop"),
    ], ids=["column-past-the-last", "offset-past-the-last-row", "two-part-grid"])
    def test_selection_and_scale_edges_exit_cleanly(self, record, tmp_path, capsys, argv,
                                                     want, message):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "compute", "--input", str(record), *argv,
                              "--output", str(out))
        assert code == want
        assert stderr.startswith("error: ") and message in stderr and stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.csv", ""], ids=["missing", "directory"])
    def test_unreadable_record_exits_3_naming_it(self, tmp_path, capsys, name):
        path = tmp_path / name
        code, _, stderr = run(capsys, "compute", "--input", str(path),
                              "--output", str(tmp_path / "x.csv"))
        assert code == 3
        assert stderr.startswith("error: cannot read %s: " % (path,))
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_single_channel_vemse_equals_mse(self, tmp_path, capsys):
        rec = tmp_path / "one.csv"
        assert run(capsys, "generate", "--kind", "wgn", "--n", "500",
                   "--seed", "3", "--output", str(rec))[0] == 0
        out_v = tmp_path / "v.csv"
        out_m = tmp_path / "m.csv"
        for est, out in (("vemse", out_v), ("mse", out_m)):
            code, _, _ = run(capsys, "compute", "--estimator", est,
                             "--input", str(rec), "--output", str(out),
                             "--scales", "1..4")
            assert code == 0
        assert read_result(out_v).rows == read_result(out_m).rows

    def test_undefined_points_still_exit_0(self, tmp_path, capsys):
        rec = tmp_path / "short.csv"
        assert run(capsys, "generate", "--kind", "wgn", "--n", "60",
                   "--output", str(rec))[0] == 0
        out = tmp_path / "u.csv"
        code, _, _ = run(capsys, "compute", "--input", str(rec),
                         "--output", str(out), "--scales", "1,30")
        assert code == 0
        rf = read_result(out)
        assert rf.rows[1][1] is None

    def test_zero_entropy_cell_is_written_without_a_sign(self, tmp_path, capsys):
        # a period-3 record has phi_m1 == phi_m under the equal-count
        # convention, so -ln(1) must be written 0.0, not -0.0
        rec = tmp_path / "period3.csv"
        write_record(MultichannelSeries(np.tile([0.0, 1.0, 5.0], 40)), rec)
        out = tmp_path / "z.csv"
        code, _, _ = run(capsys, "compute", "--estimator", "sampen", "--tolerance-mode",
                         "absolute", "--r", "0.1", "--equal-template-count",
                         "--input", str(rec), "--output", str(out))
        assert code == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[1].split(",")[:2] == ["1", "0.0"]

    def test_per_scale_constant_scale_is_undefined_not_exit_2(self, tmp_path, capsys):
        rec = tmp_path / "alt.csv"
        write_record(MultichannelSeries(np.tile([1.0, -1.0], 100)), rec)
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "compute", "--input", str(rec), "--output", str(out),
                         "--scales", "1..3", "--per-scale-tolerance")
        assert code == 0
        assert read_result(out).rows[1][1] is None

    def test_overflowing_trace_exits_2_naming_it(self, tmp_path, capsys):
        # samples near 1e154 overflow the covariance trace: the run is
        # refused with no warning, where it used to echo an infinite radius
        rec = tmp_path / "big.csv"
        write_record(MultichannelSeries(1e154 * np.random.default_rng(1).standard_normal((2, 200))),
                     rec)
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(capsys, "compute", "--input", str(rec),
                                       "--output", str(tmp_path / "o.csv"))
            assert code == 2
            assert "overflows" in stderr and "resolved_radius" not in stdout
            # per scale, each scale has no radius and its point is undefined
            code, _, _ = run(capsys, "compute", "--input", str(rec), "--output", str(out),
                             "--scales", "1..3", "--per-scale-tolerance")
        assert code == 0
        assert [row[1] for row in read_result(out).rows] == [None, None, None]

    def test_record_parsed_once(self, record, tmp_path, capsys, monkeypatch):
        import vemse.cli

        calls = []

        def counting_load(*args, **kwargs):
            calls.append(args)
            return load_record(*args, **kwargs)

        monkeypatch.setattr(vemse.cli, "load_record", counting_load)
        code, stdout, _ = run(capsys, "compute", "--input", str(record),
                              "--output", str(tmp_path / "c.csv"), "--scales", "1..2")
        assert code == 0
        assert "config: resolved_radius = " in stdout
        assert len(calls) == 1

    @pytest.fixture
    def ar1_record(self, tmp_path, capsys):
        path = tmp_path / "ar1.csv"
        assert main(["generate", "--kind", "ar1", "--n", "400", "--channels", "2",
                     "--seed", "3", "--output", str(path)]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("flags, expected", [
        (["--estimator", "vemse"],
         lambda chans: resolve_tolerance(chans, ToleranceRule.trace(0.15))),
        (["--estimator", "mse"],
         lambda chans: resolve_tolerance(chans[:1], ToleranceRule.trace(0.15))),
        # z-scored channels: the trace is the channel count
        (["--estimator", "mmse"], lambda chans: pytest.approx(0.15 * 2, rel=1e-12)),
        (["--estimator", "vemse", "--normalize"],
         lambda chans: pytest.approx(0.15 * 2, rel=1e-12)),
    ], ids=["vemse", "mse", "mmse", "vemse-normalize"])
    def test_echoed_radius_is_the_one_the_curve_used(self, ar1_record, tmp_path, capsys,
                                                      flags, expected):
        code, stdout, _ = run(capsys, "compute", "--input", str(ar1_record), "--r", "0.15",
                              "--scales", "1..3", "--output", str(tmp_path / "c.csv"), *flags)
        assert code == 0
        echoed = [line for line in stdout.splitlines() if "resolved_radius" in line]
        assert len(echoed) == 1
        radius = float(echoed[0].rpartition("=")[2])
        assert radius == expected(load_record(ar1_record).channels)

    def test_per_scale_tolerance_echoes_no_radius(self, ar1_record, tmp_path, capsys):
        # scales 2 and 3 match with radii of their own, smaller than scale 1's
        chans = load_record(ar1_record).channels
        rule = ToleranceRule.trace(0.15)
        radii = [resolve_tolerance(np.stack([coarse_grain(c, tau) for c in chans]), rule)
                 for tau in (1, 2, 3)]
        assert radii[0] > radii[1] > radii[2]
        out = tmp_path / "p.csv"
        code, stdout, _ = run(capsys, "compute", "--input", str(ar1_record),
                              "--output", str(out), "--scales", "1..3",
                              "--per-scale-tolerance")
        assert code == 0
        assert "resolved_radius" not in stdout
        assert "config: per_scale_tolerance = true" in stdout
        assert len(read_result(out).rows) == 3

    @pytest.mark.parametrize("argv, plot", [
        (["compute", "--scales", "1..3"], "plot '{}' using 1:2 with linespoints title 'entropy'"),
        (["sweep", "--vary", "r", "--values", "0.3", "--models", "wgn", "--n", "100",
          "--realizations", "1"], "plot '{}' using 2:3:4 with yerrorlines title 'mean±std'"),
        (["bench", "--vary", "N", "--values", "100", "--runs", "1"],
         "plot '{}' using 1:2 with linespoints title 'vemse', \\"),
    ], ids=["compute", "sweep", "bench"])
    def test_emit_plot(self, record, tmp_path, capsys, argv, plot):
        # each result kind (curve, ensemble, timing) gets its own plot line
        if argv[0] == "compute":
            argv = argv + ["--input", str(record)]
        out = tmp_path / "c.csv"
        code, stdout, _ = run(capsys, *argv, "--output", str(out), "--emit-plot")
        assert code == 0
        assert "wrote %s.gp" % (out,) in stdout
        script = (tmp_path / "c.csv.gp").read_text(encoding="utf-8").splitlines()
        assert plot.format(out) in script


    def test_emit_plot_writes_the_path_as_given(self, tmp_path, capsys):
        # the path is the argument of each plot line, never its template
        out = tmp_path / "s%s{0}%.csv"
        code, _, _ = run(capsys, "sweep", "--vary", "r", "--values", "0.3", "--models", "wgn",
                         "--n", "100", "--realizations", "1", "--output", str(out),
                         "--emit-plot")
        assert code == 0
        assert (tmp_path / "s%s{0}%.csv.gp").read_text(encoding="utf-8").splitlines() == [
            'set datafile separator ","', "set key autotitle columnhead",
            "# one block per model; filter externally or plot mean vs sweep_value",
            "plot '%s' using 2:3:4 with yerrorlines title 'mean±std'" % (out,)]


class TestMmseLag:
    """mmse embeds every channel at lag --L, and refuses the flags only vemse reads."""

    @pytest.fixture
    def short_record(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        assert main(["generate", "--kind", "ar2", "--n", "150", "--channels", "2",
                     "--seed", "5", "--output", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_compute_matches_the_oracle_and_replays(self, short_record, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "compute", "--estimator", "mmse", "--input",
                         str(short_record), "--L", "2", "--r", "0.3", "--scales", "1..2",
                         "--output", str(out))
        assert code == 0
        chans = load_record(short_record).channels
        want = naive_mmse([list(c) for c in chans], [2, 2], 0.3, [2, 2], [1, 2])
        assert None not in want
        assert [row[1] for row in read_result(out).rows] == pytest.approx(want, abs=1e-12)
        redo = tmp_path / "redo.csv"
        replay(out, redo)
        assert out.read_bytes() == redo.read_bytes()

    def test_sweep_lag_changes_the_means(self, tmp_path, capsys):
        rows = {}
        for lag in ("1", "2"):
            out = tmp_path / ("s%s.csv" % lag)
            code, _, _ = run(capsys, "sweep", "--estimator", "mmse", "--vary", "scale",
                             "--values", "1..2", "--models", "ar1", "--n", "200",
                             "--realizations", "2", "--L", lag, "--output", str(out))
            assert code == 0
            rows[lag] = [row[2] for row in read_result(out).rows]
        assert None not in rows["1"] + rows["2"]
        assert rows["1"] != rows["2"]

    @pytest.mark.parametrize("flag", ["--normalize", "--per-scale-tolerance",
                                      "--equal-template-count"])
    def test_vemse_only_flags_exit_2(self, short_record, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "compute", "--estimator", "mmse", "--input",
                              str(short_record), flag, "--output", str(out))
        assert code == 2
        assert flag in stderr
        assert not out.exists()


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "--kind", "ar3", "--n", "300",
                             "--sd", "1", "--seed", "7", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_channels_and_sd(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        run(capsys, "generate", "--kind", "wgn", "--n", "200", "--sd", "2.0",
            "--channels", "3", "--seed", "1", "--output", str(path))
        rec = load_record(path)
        assert rec.n_channels == 3
        assert rec.channel(0).std(ddof=1) == pytest.approx(2.0, abs=1e-9)

    def test_unwritable_output_exits_3_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, _, stderr = run(capsys, "generate", "--kind", "wgn", "--n", "10",
                              "--output", str(path))
        assert code == 3
        assert stderr.startswith("error: cannot write %s: " % path)
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--kind", "brown", "--n", "10",
                              "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert "kind" in stderr


class TestSurrogate:
    @pytest.mark.parametrize("rate", ["abc", "0x10", "nan", "inf", "1e400", "1_000", "-5", "0",
                                      ""])
    def test_bad_sample_rate_exits_3(self, tmp_path, capsys, rate):
        bad = tmp_path / "bad.csv"
        bad.write_text("# sample_rate_hz = %s\na,b\n1,2\n3,4\n" % (rate,))
        out = tmp_path / "s.csv"
        code, _, stderr = run(capsys, "surrogate", "--input", str(bad), "--output", str(out))
        assert code == 3
        assert "sample_rate_hz must be a finite decimal > 0, got %r" % (rate,) in stderr
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["2", "2.5", ".5e3"])
    def test_decimal_sample_rate_is_read(self, tmp_path, capsys, rate):
        rec = tmp_path / "rec.csv"
        rec.write_text("# sample_rate_hz = %s\na,b\n1,2\n3,4\n" % (rate,))
        assert load_record(rec).sample_rate_hz == float(rate)

    def test_sample_rate_survives_and_replays(self, tmp_path, capsys):
        # the surrogate keeps the input's sample rate, in write_record's repr form
        rec = tmp_path / "rec.csv"
        chans = np.random.default_rng(2).standard_normal((2, 50))
        write_record(MultichannelSeries(chans, sample_rate_hz=128.0), rec)
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "surrogate", "--input", str(rec), "--output", str(out))
        assert code == 0
        assert read_result(out).metadata["sample_rate_hz"] == "128.0"
        assert load_record(out).sample_rate_hz == 128.0
        redo = tmp_path / "redo.csv"
        replay(out, redo)
        assert out.read_bytes() == redo.read_bytes()

    def test_preserves_multiset(self, record, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "surrogate", "--input", str(record),
                         "--output", str(out), "--seed", "5")
        assert code == 0
        orig = load_record(record)
        shuf = load_record(out)
        for c in range(orig.n_channels):
            assert np.array_equal(np.sort(orig.channel(c)), np.sort(shuf.channel(c)))
            assert not np.array_equal(orig.channel(c), shuf.channel(c))

    def test_empty_column_items(self, record, tmp_path, capsys):
        out = tmp_path / "shuf.csv"
        code, stdout, _ = run(capsys, "surrogate", "--input", str(record), "--columns", "1,,0",
                              "--output", str(out))
        assert code == 0
        assert ("columns", "1,,0") in echoed(stdout)
        assert load_record(out).channel_labels == load_record(record).channel_labels[::-1]


class TestSweepAndBench:
    def test_sweep_writes_ensemble(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--estimator", "vemse",
                              "--vary", "r", "--values", "0.2:0.2:0.6",
                              "--models", "wgn,ar1", "--n", "200",
                              "--realizations", "2", "--seed", "1",
                              "--output", str(out))
        assert code == 0
        assert "config: vary = r" in stdout
        rf = read_result(out)
        assert rf.metadata["kind"] == "ensemble"
        assert len(rf.rows) == 2 * 3  # models x values

    @pytest.mark.parametrize("models", ["wgn,wgn", "wgn,ar1, wgn"])
    def test_repeated_model_exits_2(self, tmp_path, capsys, models):
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(capsys, "sweep", "--vary", "r", "--values", "0.3",
                              "--models", models, "--n", "100", "--output", str(out))
        assert code == 2
        assert "'wgn' is repeated" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("vary,values,message", [
        ("r", "0,0.1", "r must be > 0, got 0.0"),
        ("r", "0.2,1e400", "r must be finite, got inf"),
        ("m", "0,1", "m must be >= 1, got 0"),
    ], ids=["r", "r-inf", "m"])
    def test_bad_swept_value_exits_2_with_its_message(self, tmp_path, capsys, vary, values,
                                                      message):
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(capsys, "sweep", "--vary", vary, "--values", values,
                              "--models", "wgn", "--n", "100", "--output", str(out))
        assert code == 2
        assert stderr == "error: %s\n" % (message,)
        assert not out.exists()

    def test_empty_value_items(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--vary", "m", "--models", "wgn", "--n", "100", "--realizations", "1",
                "--output", str(out)]
        code, _, stderr = run(capsys, *argv, "--values", ",")
        assert (code, stderr) == (2, "error: --values: empty value list ','\n")
        assert not out.exists()
        assert run(capsys, *argv, "--values", "1,,2")[0] == 0
        rf = read_result(out)
        assert (rf.metadata["values"], [row[1] for row in rf.rows]) == ("1,,2", [1, 2])

    def test_empty_model_items(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--vary", "r", "--values", "0.3", "--models",
                              "wgn,,ar1", "--n", "100", "--realizations", "1",
                              "--output", str(out))
        assert code == 0
        assert ("models", "wgn,,ar1") in echoed(stdout)
        assert [row[0] for row in read_result(out).rows] == ["wgn", "ar1"]
        redo = tmp_path / "redo.csv"
        replay(out, redo)
        assert out.read_bytes() == redo.read_bytes()

    def test_bench_writes_timing(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--vary", "channels", "--values", "2,3",
                         "--n", "300", "--runs", "2", "--output", str(out))
        assert code == 0
        rf = read_result(out)
        assert rf.metadata["kind"] == "timing"
        assert len(rf.rows) == 2


class TestReplay:
    def test_sweep_replay_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--vary", "m", "--values", "1..2",
            "--models", "wgn", "--n", "150", "--realizations", "2",
            "--seed", "4", "--output", str(out))
        replayed = tmp_path / "replayed.csv"
        replay(out, replayed)
        assert out.read_bytes() == replayed.read_bytes()

    def test_compute_replay_byte_identical(self, record, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        run(capsys, "compute", "--input", str(record), "--output", str(out),
            "--scales", "1..3")
        replayed = tmp_path / "replayed.csv"
        replay(out, replayed)
        assert out.read_bytes() == replayed.read_bytes()

    def test_generate_replay_byte_identical(self, record, tmp_path, capsys):
        replayed = tmp_path / "replayed.csv"
        replay(record, replayed)
        assert record.read_bytes() == replayed.read_bytes()

    def test_replay_via_cli(self, record, tmp_path, capsys):
        replayed = tmp_path / "r.csv"
        code, _, _ = run(capsys, "replay", "--input", str(record),
                         "--output", str(replayed))
        assert code == 0
        assert record.read_bytes() == replayed.read_bytes()

    def test_replay_parses_no_data_row(self, record, tmp_path, capsys, monkeypatch):
        out = tmp_path / "curve.csv"
        assert run(capsys, "compute", "--input", str(record), "--output", str(out))[0] == 0

        def refuse(cell):
            raise AssertionError("replay parsed the data cell %r" % (cell,))

        monkeypatch.setattr(vemse.dataio, "_parse_cell", refuse)
        replayed = tmp_path / "replayed.csv"
        replay(out, replayed)
        assert out.read_bytes() == replayed.read_bytes()

    def test_non_replayable_file(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n")
        code, _, stderr = run(capsys, "replay", "--input", str(path),
                              "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert "replayable" in stderr


class TestOptionTable:
    """Flags, echo, metadata and replay all come from one table per subcommand."""

    @pytest.mark.parametrize("command, flags, required", [
        ("compute",
         "--estimator --input --columns --max-rows --offset --m --r --L --scales "
         "--tolerance-mode --normalize --per-scale-tolerance --equal-template-count "
         "--output --emit-plot", "--input --output"),
        ("sweep",
         "--estimator --vary --values --models --channels --m --r --L --n --tau "
         "--realizations --seed --output --emit-plot", "--vary --values --output"),
        ("generate", "--kind --n --sd --seed --channels --output", "--kind --n --output"),
        ("surrogate", "--input --columns --max-rows --offset --seed --output",
         "--input --output"),
        ("bench", "--vary --values --n --channels --m --tau --r --runs --seed --output "
         "--emit-plot", "--vary --values --output"),
        ("replay", "--input --output", "--input --output"),
    ])
    def test_flag_set(self, command, flags, required):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
        assert sorted(f for a in actions for f in a.option_strings) == sorted(flags.split())
        assert sorted(f for a in actions if a.required for f in a.option_strings) \
            == sorted(required.split())

    @pytest.mark.parametrize("argv", [
        ["compute", "--scales", "1..3"],
        ["generate", "--kind", "wgn", "--n", "50"],
        ["surrogate", "--columns", "1", "--max-rows", "40"],
        ["sweep", "--vary", "r", "--values", "0.3", "--models", "wgn", "--n", "100",
         "--realizations", "1"],
        ["bench", "--vary", "N", "--values", "100", "--runs", "1"],
    ], ids=lambda argv: argv[0])
    def test_echoed_config_is_the_written_metadata(self, record, tmp_path, capsys, argv):
        if argv[0] in ("compute", "surrogate"):
            argv = argv + ["--input", str(record)]
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, *argv, "--output", str(out))
        assert code == 0
        config = [(k, v) for k, v in echoed(stdout) if k != "resolved_radius"]
        written = list(read_result(out).metadata.items())
        assert written[:len(config)] == config
        # after the config, the writers add only keys of their own
        assert {k for k, _ in written[len(config):]} <= {"kind", "has_negative"}

    @pytest.mark.parametrize("flags", [
        ["surrogate", "--seed", "5"],
        ["surrogate", "--columns", "ch1,0", "--max-rows", "300", "--offset", "20"],
        ["compute", "--estimator", "mmse", "--scales", "1..2"],
        ["compute", "--estimator", "sampen", "--r", "0.2"],
        ["compute", "--normalize", "--scales", "1..3"],
        ["compute", "--per-scale-tolerance", "--scales", "1..3"],
        ["compute", "--equal-template-count", "--scales", "1..3"],
        ["compute", "--columns", "1", "--max-rows", "300", "--offset", "20",
         "--scales", "1..3"],
    ], ids=["surrogate", "surrogate-selection", "mmse", "sampen", "normalize",
            "per-scale-tolerance", "equal-template-count", "compute-selection"])
    def test_cli_then_replay_byte_identical(self, record, tmp_path, capsys, flags):
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, *flags, "--input", str(record), "--output", str(out))
        assert code == 0
        redo = tmp_path / "redo.csv"
        code, replayed, _ = run(capsys, "replay", "--input", str(out), "--output", str(redo))
        assert code == 0
        assert out.read_bytes() == redo.read_bytes()
        # replay checks and echoes the run as the command line did
        assert echoed(replayed) == echoed(stdout)

    def test_padded_list_options_replay_byte_identical(self, record, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, "compute", "--input", str(record), "--output", str(out),
                              "--scales", "1..3 ", "--columns", " ch1 , 0 ")
        assert code == 0
        assert ("scales", "1..3") in echoed(stdout)
        md = read_result(out).metadata
        assert (md["scales"], md["columns"]) == ("1..3", "ch1 , 0")
        redo = tmp_path / "redo.csv"
        replay(out, redo)
        assert out.read_bytes() == redo.read_bytes()

    def test_replay_echoes_the_radius(self, record, tmp_path, capsys):
        out = tmp_path / "out.csv"
        run(capsys, "compute", "--input", str(record), "--output", str(out))
        code, stdout, _ = run(capsys, "replay", "--input", str(out),
                              "--output", str(tmp_path / "redo.csv"))
        assert code == 0
        assert "config: command = compute" in stdout
        assert "config: resolved_radius = " in stdout

    def test_main_builds_the_parser_once(self, tmp_path, capsys):
        _build_parser.cache_clear()
        for k in range(2):
            assert run(capsys, "generate", "--kind", "wgn", "--n", "50",
                       "--output", str(tmp_path / ("%d.csv" % k)))[0] == 0
        assert _build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("columns", ["100", "60"])
    @pytest.mark.parametrize("argv", [[]] + [[c] for c in _COMMANDS],
                             ids=lambda a: a[0] if a else "vemse")
    def test_help_is_a_fresh_parsers_at_any_width(self, monkeypatch, capsys, argv, columns):
        # the kept parser was built before COLUMNS is set: help takes its
        # width when it is printed, as a fresh parser's does
        _build_parser()
        monkeypatch.setenv("COLUMNS", columns)
        helps = []
        for parser in (_build_parser(), _build_parser.__wrapped__()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]


class TestConfigEdges:
    """Malformed configuration exits 2 before any work, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "wgn", "--n", "10"],
        ["sweep", "--vary", "r", "--values", "0.3", "--models", "wgn", "--n", "100"],
        ["surrogate", "--input", "in.csv"],
        ["bench", "--vary", "N", "--values", "100", "--runs", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, *argv, "--seed", "-1", "--output", str(out))
        assert code == 2
        assert "--seed must be >= 0" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compute", "--input", "in.csv", "--r", "nan"],
        ["compute", "--input", "in.csv", "--r", "inf"],
        ["compute", "--input", "in.csv", "--r", "-0.1"],
        ["generate", "--kind", "wgn", "--n", "10", "--sd", "nan"],
        ["generate", "--kind", "wgn", "--n", "10", "--sd", "inf"],
    ], ids=["r-nan", "r-inf", "r-negative", "sd-nan", "sd-inf"])
    def test_floats_must_be_finite_and_positive(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, *argv, "--output", str(out))
        assert code == 2
        assert "must be finite and > 0" in stderr
        assert "config:" not in stdout
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["compute", "--input", "in.csv", "--m", "0"], "--m must be >= 1"),
        (["compute", "--input", "in.csv", "--L", "0"], "--L must be >= 1"),
        (["compute", "--input", "in.csv", "--max-rows", "0"], "--max-rows must be >= 1"),
        (["surrogate", "--input", "in.csv", "--offset", "-2"], "--offset must be >= 0"),
        (["generate", "--kind", "wgn", "--n", "0"], "--n must be >= 1"),
        (["generate", "--kind", "wgn", "--n", "9", "--channels", "0"],
         "--channels must be >= 1"),
        (["sweep", "--vary", "r", "--values", "0.3", "--realizations", "0"],
         "--realizations must be >= 1"),
        (["bench", "--vary", "N", "--values", "100", "--runs", "0"], "--runs must be >= 1"),
        (["sweep", "--vary", "scale", "--values", "1,2", "--tau", "-1"], "--tau must be >= 1"),
        (["sweep", "--vary", "r", "--values", "0.3", "--tau", "0"], "--tau must be >= 1"),
        (["bench", "--vary", "N", "--values", "100", "--tau", "0"], "--tau must be >= 1"),
    ], ids=["m", "L", "max-rows", "offset", "n", "channels", "realizations", "runs",
            "sweep-tau-negative", "sweep-tau", "bench-tau"])
    def test_counts_below_their_least_value_exit_2(self, tmp_path, capsys, argv, flag):
        code, stdout, stderr = run(capsys, *argv, "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert flag in stderr
        assert "config:" not in stdout

    @pytest.mark.parametrize("argv, named", [
        (["generate", "--kind", "wgn", "--n", "1_0"], "--n: '1_0' is not a valid int"),
        (["generate", "--kind", "wgn", "--n", "\u0663"], "--n: "),
        (["generate", "--kind", "wgn", "--n", " 10"], "--n: "),
        (["generate", "--kind", "wgn", "--n", "1" * 5000], "--n: "),
        (["compute", "--input", "in.csv", "--r", "1_5", "--tolerance-mode", "absolute"],
         "--r must be finite and > 0"),
        (["compute", "--input", "in.csv", "--r", "0x1p-3"], "--r must be finite and > 0"),
        (["compute", "--input", "in.csv", "--columns", "\u0661,0"], "--columns: "),
        (["compute", "--input", "in.csv", "--columns", "1" * 5000], "--columns: "),
    ], ids=["underscore", "arabic-digit", "padded", "too-many-digits", "float-underscore",
            "hex-float", "arabic-index", "too-many-digits-index"])
    def test_numbers_follow_one_ascii_grammar(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, *argv, "--output", str(out))
        assert code == 2
        assert named in stderr
        assert "config:" not in stdout
        assert not out.exists()

    def test_numbers_are_echoed_and_written_as_converted(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, _ = run(capsys, "generate", "--kind", "wgn", "--n", "+050",
                              "--sd", "0.50", "--seed", "007", "--output", str(out))
        assert code == 0
        converted = [("n", "50"), ("sd", "0.5"), ("seed", "7")]
        assert [kv for kv in echoed(stdout) if kv[0] in ("n", "sd", "seed")] == converted
        md = read_result(out).metadata
        assert [(k, md[k]) for k in ("n", "sd", "seed")] == converted

    @pytest.mark.parametrize("argv", [
        ["sweep", "--vary", "m", "--values", "1.5,2.5"],
        ["sweep", "--vary", "scale", "--values", "1.5,2"],
        ["bench", "--vary", "channels", "--values", "2.5"],
    ], ids=["sweep-m", "sweep-scale", "bench-channels"])
    def test_fractional_integer_sweep_values_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, *argv, "--n", "100", "--output", str(out))
        assert code == 2
        assert "whole numbers" in stderr
        assert not out.exists()

    def test_overflowing_generated_samples_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
            code, _, stderr = run(capsys, "generate", "--kind", "wgn", "--n", "100",
                                  "--sd", "1e308", "--output", str(out))
        assert (code, stderr) == (2, "error: channels contain non-finite samples\n")
        assert not out.exists()

    def test_overflowing_generated_samples_print_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print before the error
            code, _, stderr = run(capsys, "generate", "--kind", "wgn", "--n", "100",
                                  "--sd", "1e308", "--output", str(out))
        assert (code, stderr) == (2, "error: channels contain non-finite samples\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, want", [
        (["--estimator", "mmse"], 2),
        (["--normalize"], 2),
        (["--normalize", "--tolerance-mode", "covariance_trace"], 2),
        (["--normalize", "--tolerance-mode", "absolute"], 0),
        (["--estimator", "mmse", "--tolerance-mode", "absolute"], 0),
    ], ids=["mmse", "normalize", "normalize-trace", "normalize-absolute", "mmse-absolute"])
    def test_a_one_row_record_is_z_scored_without_blame(self, tmp_path, capsys, argv, want):
        rec, out = tmp_path / "one.csv", tmp_path / "x.csv"
        rec.write_text("a,b\n1.0,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run(capsys, "compute", "--input", str(rec), *argv,
                                  "--output", str(out))
        assert code == want
        if code:
            assert stderr == "error: covariance_trace tolerance needs >= 2 samples per channel\n"
            assert not out.exists()
        else:
            assert stderr == "" and read_result(out).rows == [[1, None, None, None]]

    def test_replayed_values_are_echoed_and_written_as_converted(self, tmp_path, capsys):
        path = tmp_path / "gen.csv"
        assert run(capsys, "generate", "--kind", "wgn", "--n", "20", "--output", str(path))[0] == 0
        original = path.read_bytes()
        path.write_text(path.read_text().replace("# n = 20\n", "# n = 020\n"))
        redo = tmp_path / "redo.csv"
        code, stdout, _ = run(capsys, "replay", "--input", str(path), "--output", str(redo))
        assert code == 0
        assert ("n", "20") in echoed(stdout)
        assert redo.read_bytes() == original

    def test_replayed_tau_below_1_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert run(capsys, "sweep", "--vary", "r", "--values", "0.3", "--models", "wgn",
                   "--n", "100", "--realizations", "1", "--output", str(path))[0] == 0
        path.write_text(path.read_text().replace("# tau = 1\n", "# tau = 0\n"))
        code, _, stderr = run(capsys, "replay", "--input", str(path),
                              "--output", str(tmp_path / "redo.csv"))
        assert code == 2
        assert "--tau must be >= 1" in stderr

    @pytest.fixture
    def curve_file(self, record, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(capsys, "compute", "--input", str(record), "--output", str(out))[0] == 0
        return out

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text.replace("# estimator = vemse\n", ""), "estimator"),
        (lambda text: text.replace("# m = 2\n", "# m = x\n"), "--m"),
        (lambda text: text.replace("# r = 0.15\n", "# r = nan\n"), "--r"),
        (lambda text: text.replace("# normalize = false\n", "# normalize = yes\n"),
         "--normalize"),
        (lambda text: text.replace("# offset = 0\n", "# offset = -1\n"), "--offset"),
        (lambda text: text.replace("# m = 2\n", "# m = 1_0\n"), "--m"),
        (lambda text: text.replace("# r = 0.15\n", "# r = 0.1_5\n"), "--r"),
        (lambda text: text.replace("# columns = \n", "# columns = \u0661,0\n"),
         "--columns"),
        (lambda text: text.replace("# m = 2\n", ""), "metadata has no m"),
    ], ids=["missing-required", "not-an-int", "nan", "not-a-bool", "below-low",
            "int-underscore", "float-underscore", "non-ascii-index", "missing-m"])
    def test_bad_replay_metadata_exits_2_naming_key(self, curve_file, tmp_path, capsys,
                                                     edit, named):
        text = curve_file.read_text()
        edited = edit(text)
        assert edited != text
        curve_file.write_text(edited)
        out = tmp_path / "redo.csv"
        code, _, stderr = run(capsys, "replay", "--input", str(curve_file),
                              "--output", str(out))
        assert code == 2
        assert named in stderr
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_unreplayable_metadata_is_not_written(self, record, tmp_path, capsys):
        # an input path with trailing whitespace would not read back
        padded = tmp_path / "rec.csv "
        padded.write_bytes(record.read_bytes())
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "compute", "--input", str(padded),
                              "--output", str(out))
        assert code == 3
        assert "whitespace" in stderr
        assert not out.exists()


def _rows(sd: float) -> str:
    """60 rows of two Gaussian channels of the given sd, one CSV line each."""
    x = sd * np.random.default_rng(5).standard_normal((60, 2))
    return "".join("%r,%r\n" % (a, b) for a, b in x.tolist())


class TestRecordContract:
    """compute on malformed records: a clean exit, one error line, finite cells, replay."""

    @pytest.mark.parametrize("content, args, want", [
        (("a,b\n" + _rows(1.0)).replace("\n", "\r\n").encode(), [], 0),
        (("a,b\n" + _rows(1.0)).replace("\n", "\r").encode(), [], 0),
        (b"\xef\xbb\xbf" + ("a,b\n" + _rows(1.0)).encode(), ["--columns", "a"], 0),
        (("a,b\n1,2\n3,\x004\n" + _rows(1.0)).encode(), [], 3),
        (b"a,b\n", [], 3),
        (("a,b\n" + _rows(1.0).replace("\n", "\n\n", 1)).encode(), [], 0),
        (("a,a\n" + _rows(1.0)).encode(), ["--columns", "a"], 3),
        (("# colour = red\na,b\n" + _rows(1.0)).encode(), [], 0),
        (("a,b\n" + _rows(1e300)).encode(), [], 2),
        (("a,b\n" + _rows(1e300)).encode(), ["--tolerance-mode", "absolute", "--r", "1e300"],
         0),
        (("a,b\n" + _rows(1e10)).encode(), ["--r", "1e300"], 2),
        (("a,b\n" + _rows(1.0)).encode(), ["--estimator", "mmse", "--r", "1e308"], 2),
    ], ids=["crlf", "cr", "bom", "nul", "header-only", "blank-line", "repeated-label",
            "unknown-metadata", "1e300-samples", "1e300-absolute-radius",
            "1e300-quotient", "mmse-1e308-quotient"])
    def test_exit_error_line_cells_and_replay(self, tmp_path, capsys, content, args, want):
        rec = tmp_path / "rec.csv"
        rec.write_bytes(content)
        out = tmp_path / "out.csv"
        code, _, stderr = run(capsys, "compute", "--input", str(rec), "--output", str(out),
                              "--scales", "1..2", *args)
        assert code == want
        if code:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "Traceback" not in stderr and not out.exists()
            return
        cells = [cell for row in read_result(out).rows for cell in row]
        assert all(cell is None or np.isfinite(cell) for cell in cells)
        replayed = tmp_path / "replayed.csv"
        assert run(capsys, "replay", "--input", str(out), "--output", str(replayed))[0] == 0
        assert replayed.read_bytes() == out.read_bytes()


# A malformed value for each type of option in _COMMANDS; a new type needs one here.
_MALFORMED = {int: "x", float: "x", str: "x", parse_values: "1..x", _items: "x",
              _columns: "\u0661"}
# What each subcommand needs on its command line besides --input
_LEAST = {"compute": [], "surrogate": [], "generate": ["--kind", "wgn", "--n", "10"],
          "sweep": ["--vary", "r", "--values", "0.3"], "bench": ["--vary", "N", "--values", "100"]}


class TestOptionsCheckedFirst:
    """Every option is converted and checked before the echo and before the record is read."""

    def run_on_a_malformed_record(self, tmp_path, capsys, command, *argv, record="bad.csv"):
        """Run with --input record in tmp_path: bad.csv is malformed, another name missing."""
        (tmp_path / "bad.csv").write_text("a,b\n1,oops\n")
        if any(opt.key == "input" for opt in _COMMANDS[command].options):
            argv += ("--input", str(tmp_path / record))
        out = tmp_path / "out.csv"
        code, stdout, stderr = run(capsys, command, *_LEAST[command], *argv,
                                   "--output", str(out))
        assert "config:" not in stdout and not out.exists()
        return code, stderr

    @pytest.mark.parametrize("command, opt", [
        pytest.param(command, opt, id="%s-%s" % (command, opt.key))
        for command, spec in _COMMANDS.items() for opt in spec.options
        # a flag takes no value, and a path is checked when it is opened
        if opt.type is not bool and (opt.type is not str or opt.choices)])
    def test_a_malformed_value_exits_2_naming_its_flag(self, tmp_path, capsys, command, opt):
        flag = "--" + opt.key.replace("_", "-")
        code, stderr = self.run_on_a_malformed_record(tmp_path, capsys, command, flag,
                                                      _MALFORMED[opt.type])
        assert code == 2
        assert re.match(r"error: %s[ :]" % re.escape(flag), stderr)
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("command, argv", [
        ("compute", ["--scales", "1..x"]),
        ("compute", ["--estimator", " vemse"]),
        ("compute", ["--tolerance-mode", "absolute "]),
        ("sweep", ["--vary", " r"]),
        ("sweep", ["--values", "0.1:x:1"]),
    ], ids=["bad-scales", "padded-estimator", "padded-mode", "padded-vary", "bad-grid"])
    def test_an_option_error_wins_over_a_record_error(self, tmp_path, capsys, command, argv):
        code, stderr = self.run_on_a_malformed_record(tmp_path, capsys, command, *argv)
        assert code == 2
        assert stderr.startswith("error: " + argv[0])

    @pytest.mark.parametrize("command, argv, message, record", [
        pytest.param(command, argv, message, record, id="%s-%s" % (name, record[:-4]))
        for name, command, argv, message in [
            ("mmse-normalize", "compute", ["--estimator", "mmse", "--normalize"],
             "mmse does not take --normalize"),
            ("mmse-per-scale", "compute", ["--estimator", "mmse", "--per-scale-tolerance"],
             "mmse does not take --per-scale-tolerance"),
            ("mmse-equal-count", "compute", ["--estimator", "mmse", "--equal-template-count"],
             "mmse does not take --equal-template-count"),
            ("falling-scales", "compute", ["--scales", "3,1"],
             "scales must be strictly increasing and >= 1"),
            ("no-column", "compute", ["--columns", ","], "--columns: empty value list ','"),
            ("sweep-fractional-m", "sweep", ["--vary", "m", "--values", "1.5,2"],
             "m values must be whole numbers"),
            ("sweep-scale-0", "sweep", ["--vary", "scale", "--values", "0,1"],
             "scales must be strictly increasing and >= 1"),
            ("sweep-falling-r", "sweep", ["--vary", "r", "--values", "0.2,0.1"],
             "sweep_values must be strictly increasing"),
            ("sweep-m-0", "sweep", ["--vary", "m", "--values", "0,1"], "m must be >= 1, got 0"),
            ("sweep-n-0", "sweep", ["--vary", "N", "--values", "0,5"],
             "n_samples must be >= 1, got 0"),
            ("bench-m-0", "bench", ["--vary", "m", "--values", "0"], "m must be >= 1, got 0"),
            ("bench-fractional-scale", "bench", ["--vary", "scale", "--values", "2.5"],
             "scale values must be whole numbers"),
            ("generate-flicker-n-1", "generate", ["--kind", "flicker", "--n", "1"],
             "--n must be >= 2, got 1"),
            ("generate-flicker+wgn-n-1", "generate", ["--kind", "flicker+wgn", "--n", "1"],
             "--n must be >= 2, got 1"),
            ("sweep-flicker-n-1", "sweep", ["--models", "flicker", "--n", "1"],
             "n_samples must be >= 2, got 1"),
            ("sweep-flicker-N-1", "sweep", ["--models", "wgn,flicker+wgn", "--vary", "N",
                                            "--values", "1,5"], "n_samples must be >= 2, got 1"),
        ] for record in ("bad.csv", "missing.csv")[:2 if command == "compute" else 1]])
    def test_a_library_check_wins_over_a_record_error(self, tmp_path, capsys, command, argv,
                                                      message, record):
        code, stderr = self.run_on_a_malformed_record(tmp_path, capsys, command, *argv,
                                                      record=record)
        assert (code, stderr) == (2, "error: %s\n" % (message,))
