"""Experiment harness: sweeps, studies, timing."""
import numpy as np
import pytest

from vemse import (
    EntropyParams,
    InvalidParameterError,
    ModelBundle,
    MultichannelSeries,
    SweepSpec,
    ToleranceRule,
    directionality_study,
    mmse,
    noise_robustness_study,
    run_sweep,
    sampen,
    timing_benchmark,
    vemse,
)
from vemse import estimators, experiments
from vemse.experiments import _estimate_curve, generate_channel, realize_bundle


def _spy(monkeypatch, module, name):
    """Record the (args, kwargs) of every call to module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def small_spec(**overrides):
    kwargs = dict(
        estimator="vemse",
        swept_parameter="scale",
        sweep_values=[1, 2, 3],
        bundles=[ModelBundle.homogeneous("wgn"), ModelBundle.homogeneous("ar3")],
        n_samples=300,
        realizations=3,
        base_seed=7,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestRunSweep:
    def test_deterministic(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert a == b

    def test_single_realization_zero_std(self):
        res = run_sweep(small_spec(realizations=1))
        for row in res.std:
            assert all(s == 0.0 for s in row if s is not None)

    def test_defined_count_accounting(self):
        res = run_sweep(small_spec(n_samples=80, sweep_values=[1, 2, 3, 4, 30]))
        for row in res.defined_count:
            assert all(0 <= c <= res.realizations for c in row)
        # scale 30 on 80 samples leaves too few templates
        assert all(row[-1] == 0 for row in res.defined_count)

    def test_empty_model_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_spec(bundles=[])

    @pytest.mark.parametrize("vary", ["m", "N", "scale"])
    def test_fractional_integer_values_rejected(self, vary):
        with pytest.raises(InvalidParameterError, match="whole numbers"):
            small_spec(swept_parameter=vary, sweep_values=[1, 2.5])
        small_spec(swept_parameter=vary, sweep_values=[1.0, 2.0])
        small_spec(swept_parameter="r", sweep_values=[0.1, 2.5])

    @pytest.mark.parametrize("field", ["n_samples", "realizations", "base_seed"])
    def test_fractional_counts_rejected(self, field):
        # each used to reach run_sweep and die there with a TypeError
        with pytest.raises(InvalidParameterError, match="whole number"):
            small_spec(**{field: 2.5})
        assert type(getattr(small_spec(**{field: 2.0}), field)) is int

    @pytest.mark.parametrize("vary,values", [
        ("m", [1, 2]), ("r", [0.2, 0.5]), ("N", [40, 150, 300]), ("scale", [1, 2, 40]),
    ], ids=["m", "r", "N", "scale"])
    def test_mean_matches_manual_realizations(self, vary, values):
        spec = small_spec(swept_parameter=vary, sweep_values=values, tau=2)
        res = run_sweep(spec)
        for mi, bundle in enumerate(spec.bundles):
            for vi, v in enumerate(values):
                n = v if vary == "N" else spec.n_samples
                m = v if vary == "m" else spec.m
                r = v if vary == "r" else spec.r
                scale = v if vary == "scale" else spec.tau
                vals = []
                for k in range(spec.realizations):
                    chans = realize_bundle(bundle, n, spec.base_seed, k)
                    curve = _estimate_curve("vemse", chans, m, r, 1, [scale],
                                            ToleranceRule.trace(r))
                    vals.append(curve.values[0])
                defined = [x for x in vals if x is not None]
                assert res.defined_count[mi][vi] == len(defined)
                assert res.mean[mi][vi] == (float(np.mean(defined)) if defined else None)
                assert res.std[mi][vi] == (float(np.std(defined)) if defined else None)

    @pytest.mark.parametrize("vary,values,message", [
        ("r", [0.0, 0.1], "r must be > 0, got 0.0"),
        ("r", [0.2, float("inf")], "r must be finite, got inf"),
        ("m", [0, 1], "m must be >= 1, got 0"),
        ("N", [0, 50], "n_samples must be >= 1, got 0"),
    ], ids=["r", "r-inf", "m", "N"])
    def test_bad_swept_value_refused_before_any_count(self, monkeypatch, vary, values, message):
        # the spec refuses it, so nothing is drawn or counted
        draws = _spy(monkeypatch, experiments, "realize_bundle")
        counts = _spy(monkeypatch, estimators, "_pair_counts")
        with pytest.raises(InvalidParameterError) as err:
            run_sweep(small_spec(swept_parameter=vary, sweep_values=values))
        assert str(err.value) == message
        assert draws == [] and counts == []

    @pytest.mark.parametrize("bundle, vary, values, least", [
        (ModelBundle.homogeneous("flicker"), "scale", [1], 2),
        (ModelBundle.homogeneous("flicker+wgn"), "N", [1, 5], 2),
        (ModelBundle("w", ["wgn"], "flicker", 0.5), "scale", [1], 2),
        (ModelBundle("w", ["wgn"], "flicker", 0.0), "scale", [1], 1),
        (ModelBundle.homogeneous("ar1"), "N", [1, 5], 1),
    ], ids=["flicker", "flicker+wgn-swept", "flicker-noise", "unmixed-noise", "ar1"])
    def test_flicker_least_length_is_checked_before_any_draw(self, monkeypatch, bundle, vary,
                                                             values, least):
        # one sample is refused where a flicker channel would be drawn from it
        assert bundle.least_n() == least
        draws = _spy(monkeypatch, experiments, "realize_bundle")
        spec = dict(swept_parameter=vary, sweep_values=values, bundles=[bundle], n_samples=1)
        if least == 1:
            small_spec(**spec)
        else:
            with pytest.raises(InvalidParameterError, match=r"^n_samples must be >= 2, got 1$"):
                small_spec(**spec)
        assert draws == []

    @pytest.mark.parametrize("estimator", ["vemse", "mse", "sampen"])
    def test_r_sweep_counts_each_realization_once(self, monkeypatch, estimator):
        # 15 radii x 2 models x 3 realizations: one pair count per draw
        calls = _spy(monkeypatch, estimators, "_pair_counts")
        radii = [round(0.1 * i, 1) for i in range(1, 16)]
        run_sweep(small_spec(estimator=estimator, swept_parameter="r", sweep_values=radii))
        assert len(calls) == 2 * 3
        assert all(len(args[2]) == 15 for args, _ in calls)

    def test_mmse_r_sweep_calls_mmse_per_radius(self, monkeypatch):
        calls = _spy(monkeypatch, experiments, "mmse")
        run_sweep(small_spec(estimator="mmse", swept_parameter="r",
                             sweep_values=[round(0.1 * i, 1) for i in range(1, 16)]))
        assert len(calls) == 15 * 2 * 3

    def test_n_sweep(self):
        res = run_sweep(small_spec(swept_parameter="N", sweep_values=[100, 200]))
        assert res.sweep_values == [100, 200]
        assert all(len(row) == 2 for row in res.mean)

    def test_r_sweep_uses_fixed_data(self):
        res = run_sweep(small_spec(swept_parameter="r",
                                   sweep_values=[0.2, 0.5, 1.0], tau=1))
        # larger tolerance, lower entropy, on average
        for row in res.mean:
            assert row[0] > row[-1]


class TestEstimateCurve:
    """The one map from an estimator name to its call."""

    chans = realize_bundle(ModelBundle.homogeneous("ar2"), 300, 2, 0)

    def test_mmse_embeds_every_channel_at_the_lag(self):
        got = _estimate_curve("mmse", self.chans, 2, 0.2, 2, [1, 2])
        want = mmse(MultichannelSeries(self.chans), [2, 2], ToleranceRule.trace(0.2),
                    lags=[2, 2], scales=[1, 2])
        assert got == want
        assert got != _estimate_curve("mmse", self.chans, 2, 0.2, 1, [1, 2])

    def test_sampen_uses_the_first_channel_and_the_rule(self):
        curve = _estimate_curve("sampen", self.chans, 2, 0.3, 1, [1],
                                ToleranceRule.absolute(0.3), equal_template_count=True)
        assert curve.values[0] == sampen(self.chans[0], 2, 0.3, equal_template_count=True)

    @pytest.mark.parametrize("flag", ["normalize", "per_scale_tolerance",
                                      "equal_template_count"])
    def test_mmse_refuses_the_vemse_flags(self, flag):
        with pytest.raises(InvalidParameterError, match=flag):
            _estimate_curve("mmse", self.chans, 2, 0.2, 1, [1], **{flag: True})
        _estimate_curve("mmse", self.chans, 2, 0.2, 1, [1], **{flag: False})


class TestNoiseRobustness:
    def test_ratio_zero_matches_clean_sweep(self):
        study = noise_robustness_study(ratio=0.0, n_samples=400, scales=[1, 2, 3],
                                       realizations=2, base_seed=3)
        clean = run_sweep(SweepSpec(
            estimator="vemse", swept_parameter="scale", sweep_values=[1, 2, 3],
            bundles=[ModelBundle.homogeneous("ar1")],
            n_samples=400, realizations=2, base_seed=3))
        got, _, _ = study.row("ar1")
        want, _, _ = clean.row("ar1")
        assert got == want  # bit-identical, same seeds

    def test_includes_noise_triple(self):
        study = noise_robustness_study(ratio=0.2, n_samples=300, scales=[1],
                                       realizations=1, base_seed=1)
        assert {"wgn", "flicker", "flicker+wgn"} <= set(study.model_names)
        assert "ar1+wgn20" in study.model_names

    def test_bad_noise_kind(self):
        with pytest.raises(InvalidParameterError):
            noise_robustness_study(noise_kind="pink")


class TestDirectionality:
    def test_identical_pair_invariant(self):
        # a same-kind pair would name both rows "wgn|wgn"
        with pytest.raises(InvalidParameterError, match="'wgn\\|wgn' is repeated"):
            directionality_study([("wgn", "wgn")], n_samples=300,
                                 scales=[1, 2], realizations=2, base_seed=5)
        # same kind but different channel seeds: rows differ in general,
        # so check the exact-symmetry case directly
        x = np.random.default_rng(0).standard_normal(300)
        params = EntropyParams(m=2, r=0.15, scales=[1, 2])
        fwd = vemse(MultichannelSeries(np.stack([x, x])), params)
        rev = vemse(MultichannelSeries(np.stack([x, x])[::-1].copy()), params)
        assert fwd.values == rev.values

    def test_pair_listed_with_its_reversal_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_estimate_curve", None)  # no estimate is made
        with pytest.raises(InvalidParameterError, match="'ar1\\|wgn' is repeated"):
            directionality_study([("wgn", "ar1"), ("ar1", "wgn")], n_samples=100,
                                 realizations=1)

    def test_reversal_reuses_realizations(self):
        res = directionality_study([("wgn", "ar1")], n_samples=400,
                                   scales=[1], realizations=2, base_seed=9)
        assert res.model_names == ["wgn|ar1", "ar1|wgn"]
        # same data both ways: defined counts agree
        assert res.defined_count[0] == res.defined_count[1]

    def test_pair_arity_checked(self):
        with pytest.raises(InvalidParameterError):
            directionality_study([("wgn",)], n_samples=100, realizations=1)

    def test_no_realizations_rejected(self):
        with pytest.raises(InvalidParameterError, match="realizations"):
            directionality_study([("wgn", "ar1")], n_samples=100, realizations=0)

    def test_rows_are_the_pair_and_its_row_flip(self):
        res = directionality_study([("wgn", "ar1")], n_samples=300, scales=[1, 2],
                                   realizations=1, base_seed=4)
        # channel c of realization k is seeded (base_seed, k, c)
        chans = np.stack([generate_channel("wgn", 300, (4, 0, 0)),
                          generate_channel("ar1", 300, (4, 0, 1))])
        params = EntropyParams(m=2, r=0.15, scales=[1, 2])
        assert res.mean[0] == vemse(MultichannelSeries(chans), params).values
        assert res.mean[1] == vemse(MultichannelSeries(chans[::-1].copy()), params).values


class TestLibraryParametersRefused:
    """Each study refuses a bad parameter with InvalidParameterError before any draw."""

    @pytest.mark.parametrize("study", [
        lambda seed: run_sweep(SweepSpec("vemse", "r", [0.2], [ModelBundle.homogeneous("wgn")],
                                         n_samples=50, realizations=1, base_seed=seed)),
        lambda seed: noise_robustness_study(n_samples=50, scales=[1], realizations=1,
                                            base_seed=seed),
        lambda seed: directionality_study([("wgn", "ar1")], n_samples=50, scales=[1],
                                          realizations=1, base_seed=seed),
        lambda seed: timing_benchmark("N", [50], n_samples=50, runs=1, base_seed=seed),
    ], ids=["sweep", "noise", "directionality", "timing"])
    def test_a_negative_seed(self, monkeypatch, study):
        monkeypatch.setattr(experiments, "realize_bundle", None)
        with pytest.raises(InvalidParameterError, match="base_seed must be >= 0"):
            study(-1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(realizations=2.5), "realizations must be a whole number"),
        (dict(n_samples=100.5), "n_samples must be a whole number"),
        (dict(base_seed=1.5), "base_seed must be a whole number"),
        (dict(scales=[3, 1]), "sweep_values must be strictly increasing"),
        (dict(r=0), "r must be > 0"),
    ], ids=["realizations", "n_samples", "seed", "scales", "r"])
    def test_directionality_checks_every_parameter_first(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(experiments, "realize_bundle", None)
        with pytest.raises(InvalidParameterError, match=message):
            directionality_study([("wgn", "ar1")], **{"n_samples": 50, "realizations": 1,
                                                      **kwargs})

    @pytest.mark.parametrize("study, message", [
        (lambda: run_sweep(SweepSpec("vemse", "r", [0.2], [ModelBundle.homogeneous("wgn")],
                                     n_samples=0, realizations=1)), "n_samples must be >= 1"),
        (lambda: noise_robustness_study(n_samples=0, scales=[1], realizations=1),
         "n_samples must be >= 1"),
        (lambda: directionality_study([("wgn", "foo")], n_samples=50, scales=[1],
                                      realizations=1), "unknown signal kind 'foo'"),
        (lambda: run_sweep(SweepSpec("vemse", "r", [0.2], [ModelBundle("x", ["wgn"], "bar", 0.5)],
                                     n_samples=50, realizations=1)), "unknown signal kind 'bar'"),
    ], ids=["sweep-n", "noise-n", "directionality-kind", "sweep-noise-kind"])
    def test_a_bad_draw_is_refused_first(self, monkeypatch, study, message):
        monkeypatch.setattr(experiments, "realize_bundle", None)
        with pytest.raises(InvalidParameterError, match=message):
            study()

    def test_timing_takes_a_whole_seed(self):
        with pytest.raises(InvalidParameterError, match="base_seed must be a whole number"):
            timing_benchmark("N", [50], n_samples=50, runs=1, base_seed=1.5)
        report = timing_benchmark("N", [50], n_samples=50, runs=1, base_seed=2.0)
        assert report.values == [50]


class TestTiming:
    def test_report_shape_and_positive_times(self):
        report = timing_benchmark("N", [200, 400], n_samples=400, runs=2,
                                  base_seed=0)
        assert report.values == [200, 400]
        assert report.runs == 2
        for series in (report.vemse_mean, report.mmse_mean,
                       report.vemse_median, report.mmse_median):
            assert len(series) == 2
            assert all(t > 0 for t in series)

    def test_bad_vary(self):
        with pytest.raises(InvalidParameterError):
            timing_benchmark("r", [0.1])

    def test_no_runs_rejected(self):
        with pytest.raises(InvalidParameterError, match="runs"):
            timing_benchmark("N", [100], runs=0)

    @pytest.mark.parametrize("vary", ["scale", "N", "channels", "m"])
    def test_fractional_values_rejected(self, vary):
        with pytest.raises(InvalidParameterError, match="whole numbers"):
            timing_benchmark(vary, [1, 2.5], n_samples=100, runs=1)

    @pytest.mark.parametrize("field", ["n_samples", "channels", "runs"])
    def test_fractional_sizes_rejected(self, field):
        # each used to die inside the first estimate with a TypeError
        kwargs = dict(n_samples=100, channels=2, runs=1)
        with pytest.raises(InvalidParameterError, match="whole number"):
            timing_benchmark("m", [2], **dict(kwargs, **{field: 1.5}))
