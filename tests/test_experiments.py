"""Light integration tests for the experiment harness (tiny scale).

The benchmarks/ directory exercises the full default-scale protocol;
these tests check the harness machinery itself quickly.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentSetup,
    calibrate_environment,
    first_skim_cycles,
    measure_precise_cycles,
    median_speedup,
    run_benchmark,
    run_experiment,
)
from repro.experiments import areapower, fig2, fig13, fig15, table1
from repro.experiments.report import ascii_image, format_series, format_table
from repro.workloads import make_workload

TINY = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        paper_artifacts = {
            "table1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17", "areapower", "summary",
        }
        ablations = {
            "ablation-memo", "ablation-capacitor",
            "ablation-watchdog", "ablation-runtimes",
            "energy-breakdown",
        }
        extensions = {"fig10-nn", "fig11-nn"}
        assert set(EXPERIMENTS) == paper_artifacts | ablations | extensions

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCalibration:
    def test_environment_scales_with_kernel(self):
        small = calibrate_environment(10_000, TINY)
        large = calibrate_environment(1_000_000, TINY)
        assert large.capacitor_f > small.capacitor_f
        assert large.watchdog_cycles > small.watchdog_cycles
        assert small.watchdog_cycles < small.swing_cycles

    def test_minimum_swing_enforced(self):
        env = calibrate_environment(100, TINY)
        assert env.swing_cycles == TINY.min_swing_cycles

    def test_capacitor_has_headroom(self):
        env = calibrate_environment(50_000, TINY)
        cap = env.capacitor()
        assert cap.v_max == pytest.approx(3.3)
        assert cap.voltage == pytest.approx(3.0)


class TestRunBenchmark:
    def test_baseline_and_wn_complete(self):
        workload = make_workload("MatAdd", "tiny")
        env = calibrate_environment(measure_precise_cycles(workload), TINY)
        base = run_benchmark(workload, "precise", None, "clank", TINY, env)
        wn = run_benchmark(workload, "swv", 8, "clank", TINY, env)
        assert len(base.runs) == 2  # 2 traces x 1 invocation
        assert base.median_error == 0.0
        assert wn.median_error < 5.0
        assert median_speedup(base, wn) > 0

    def test_first_skim_cycles(self):
        workload = make_workload("MatAdd", "tiny")
        from repro.experiments import build_anytime

        kernel = build_anytime(workload, "swv", 8)
        first, total = first_skim_cycles(kernel, workload.inputs)
        assert 0 < first < total


class TestExperimentJobs:
    def test_unset_means_serial(self, monkeypatch):
        from repro.experiments.common import experiment_jobs

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert experiment_jobs() == 1

    def test_valid_value_parsed(self, monkeypatch):
        from repro.experiments.common import experiment_jobs

        monkeypatch.setenv("REPRO_JOBS", "4")
        assert experiment_jobs() == 4

    def test_zero_clamped_to_serial(self, monkeypatch):
        from repro.experiments.common import experiment_jobs

        monkeypatch.setenv("REPRO_JOBS", "0")
        assert experiment_jobs() == 1

    def test_invalid_value_warns_and_runs_serial(self, monkeypatch, capsys):
        from repro.experiments import common

        monkeypatch.setattr(common, "_warned_switches", set())
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert common.experiment_jobs() == 1
        err = capsys.readouterr().err
        assert "invalid REPRO_JOBS" in err
        assert "'banana'" in err
        assert "running serially" in err

    def test_invalid_value_warns_exactly_once(self, monkeypatch, capsys):
        """A figure grid consults experiment_jobs() once per benchmark;
        an invalid value must not spam stderr with one warning each."""
        from repro.experiments import common

        monkeypatch.setattr(common, "_warned_switches", set())
        monkeypatch.setenv("REPRO_JOBS", "many")
        for _ in range(5):
            assert common.experiment_jobs() == 1
        err = capsys.readouterr().err
        assert err.count("invalid REPRO_JOBS") == 1


class TestWorkerCacheStatelessness:
    """Regression: cached kernels/workloads must not leak state between
    samples — the same spec must produce bit-identical SampleRuns whether
    it hits warm caches or a fresh (worker-process-like) cold start."""

    @staticmethod
    def _spec(runtime="clank", mode="swv", bits=8):
        from repro.experiments.common import SampleSpec

        workload = make_workload("MatAdd", "tiny")
        env = calibrate_environment(measure_precise_cycles(workload), TINY)
        return SampleSpec(
            workload_name="MatAdd",
            scale="tiny",
            mode=mode,
            bits=bits,
            runtime=runtime,
            trace_index=1,
            invocation=0,
            capacitor_f=env.capacitor_f,
            watchdog_cycles=env.watchdog_cycles,
            trace_count=TINY.trace_count,
            trace_duration_ms=TINY.trace_duration_ms,
            trace_seed=TINY.trace_seed,
            max_wall_ms=TINY.max_wall_ms,
        )

    @staticmethod
    def _clear_caches():
        from repro.experiments import common

        common._worker_workloads.clear()
        common._worker_cache.clear()

    @pytest.mark.parametrize("replay", [False, True])
    def test_warm_cache_matches_cold_start(self, monkeypatch, replay):
        from repro.experiments.common import _run_config_group, _run_sample

        def run(spec):
            if replay:
                return _run_config_group([spec])[0]
            return _run_sample(spec)

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        spec = self._spec()

        self._clear_caches()
        cold = run(spec)
        warm = run(spec)  # second in-process run: all caches hot
        assert warm == cold

        self._clear_caches()  # emulate a fresh worker process
        fresh = run(spec)
        assert fresh == cold

    def test_explicit_reference_is_not_evaluated_again(self, monkeypatch):
        """A grid given its reference grades against it, so the samples
        never evaluate their own workload's IR."""
        from repro.compiler import ir
        from repro.experiments.common import run_benchmark_suite

        for name in ("REPRO_JOBS", "REPRO_STORE", "REPRO_FAULTS"):
            monkeypatch.delenv(name, raising=False)
        workload = make_workload("MatAdd", "tiny")
        env = calibrate_environment(measure_precise_cycles(workload), TINY)
        reference = workload.decoded_reference()
        calls = []
        evaluate = ir.evaluate

        def counting_evaluate(*args):
            calls.append(args)
            return evaluate(*args)

        self._clear_caches()
        monkeypatch.setattr(ir, "evaluate", counting_evaluate)
        [result] = run_benchmark_suite(
            workload, [("swv", 8)], "clank", TINY, env, reference
        )
        assert len(result.runs) == TINY.trace_count * TINY.invocations
        assert calls == []


    def test_workload_without_scale_rejected(self):
        """Samples rebuild their workload by name, so an ad-hoc workload
        (no ``scale``) is refused with a pointer to make_workload."""
        workload = make_workload("Var", "tiny")
        workload.scale = None
        env = calibrate_environment(measure_precise_cycles(workload), TINY)
        with pytest.raises(ValueError, match="make_workload"):
            run_benchmark(workload, "precise", None, "clank", TINY, env)


class TestExperimentModules:
    def test_table1_tiny(self):
        result = table1.run(TINY)
        assert len(result.rows) == 6
        assert "Conv2d" in result.as_text()

    def test_fig2_tiny(self):
        result = fig2.run(TINY)
        assert result.anytime_error < result.truncated_error
        assert "Figure 2" in result.as_text()

    def test_fig13_tiny(self):
        result = fig13.run(TINY)
        assert result.speedup("precise", None, False) == 1.0
        assert result.speedup("swp", 4, True) > 1.0

    def test_fig15_tiny(self):
        result = fig15.run(TINY, widths=(1, 4))
        assert {r.bits for r in result.rows} == {1, 4}

    def test_areapower_model(self):
        result = areapower.run()
        assert result.fmax_far_above_system_clock()
        assert result.mux_area_negligible()
        assert result.memo_table_cheaper_than_multiplier()


class TestReportFormatting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", 0.001)], title="T")
        assert "T" in text and "a" in text and "bb" in text
        assert "0.001" in text

    def test_format_series(self):
        text = format_series("s", [0.5, 1.0], [10.0, 0.0])
        assert "# s" in text
        assert text.count("\n") == 2

    def test_ascii_image_levels(self):
        image = ascii_image([0, 128, 255], width=3)
        assert len(image) == 3
        assert image[0] == " "
        assert image[2] == "@"
