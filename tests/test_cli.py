"""CLI behaviour: exit codes, determinism, config echo, replay."""
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
from vemse.cli import CliConfigError, main, parse_values, replay


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
