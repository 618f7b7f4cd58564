"""CLI behaviour: exit codes, determinism, config echo, replay."""
import argparse

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
from vemse.cli import CliConfigError, _build_parser, main, parse_values, replay

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

    def test_per_scale_constant_scale_is_undefined_not_exit_2(self, tmp_path, capsys):
        rec = tmp_path / "alt.csv"
        write_record(MultichannelSeries(np.tile([1.0, -1.0], 100)), rec)
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "compute", "--input", str(rec), "--output", str(out),
                         "--scales", "1..3", "--per-scale-tolerance")
        assert code == 0
        assert read_result(out).rows[1][1] is None

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

    def test_emit_plot(self, record, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "compute", "--input", str(record),
                         "--output", str(out), "--scales", "1..3",
                         "--emit-plot")
        assert code == 0
        script = (tmp_path / "c.csv.gp").read_text()
        assert "plot" in script


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

    @pytest.mark.parametrize("flag", ["--per-scale-tolerance", "--equal-template-count"])
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

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--kind", "brown", "--n", "10",
                              "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert "kind" in stderr


class TestSurrogate:
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
        ("m", "0,1", "m must be >= 1, got 0"),
    ], ids=["r", "m"])
    def test_bad_swept_value_exits_2_with_its_message(self, tmp_path, capsys, vary, values,
                                                      message):
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(capsys, "sweep", "--vary", vary, "--values", values,
                              "--models", "wgn", "--n", "100", "--output", str(out))
        assert code == 2
        assert stderr == "error: %s\n" % (message,)
        assert not out.exists()

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
    ], ids=["underscore", "arabic-digit", "padded", "too-many-digits", "float-underscore",
            "hex-float", "arabic-index"])
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
    ], ids=["missing-required", "not-an-int", "nan", "not-a-bool", "below-low",
            "int-underscore", "float-underscore", "non-ascii-index"])
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
