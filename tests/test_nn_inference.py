"""The NN inference workload family and the progress resume policy.

Four contracts from the issue, each with its own class below:

* **Bit-exactness vs the interpreter** — every NN kernel's precise
  compiled build decodes identically to the IR interpreter, and the
  SWP anytime builds converge exactly once all bit-planes retire.
* **Replay/batch parity** — the progress runtime's replay policy and
  its scalar batch lanes reproduce the interpreter's SampleRuns field
  by field (accuracy included) on the NN grid.
* **Chaos compliance** — progress ships in the campaign's default
  runtime set and a 100-scenario seeded campaign reports zero
  crash-consistency violations.
* **Accuracy monotonicity** — masking the asp input to its top
  ``k * bits`` bit-planes reproduces the anytime level-k output (the
  fissioned stage is linear in that input), so top-1 accuracy must be
  non-decreasing in k on a fixed seed.
"""

import pytest

from repro.compiler import evaluate
from repro.core import AnytimeConfig, AnytimeKernel, nrmse
from repro.experiments.common import (
    ExperimentSetup,
    _worker_cache,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
)
from repro.power.harvester import paper_traces
from repro.workloads import (
    ALL_BENCHMARKS,
    BENCHMARKS,
    NN_BENCHMARKS,
    make_workload,
)
from repro.workloads.base import top1_accuracy
from tests.golden import interp_runs

#: The NN workloads whose quality metric is top-1 accuracy (Pool decodes
#: to pooled activations and stays NRMSE-only).
CLASSIFIERS = ("FC", "MLP", "CNN")


def _serial_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)


def _asp_array(kernel):
    """The kernel's anytime (asp-annotated) input array."""
    for array in kernel.arrays.values():
        if array.pragma is not None and array.pragma.kind == "asp":
            return array
    raise AssertionError("no asp input")


def _masked_accuracy_curve(workload, bits):
    """Top-1 accuracy at every anytime level, via bit-plane masking.

    Level-k SWP execution has retired the top ``k * bits`` bit-planes
    of the asp input; because the fissioned stage is linear in that
    input, evaluating the *unfissioned* kernel with the input masked to
    those planes yields the level-k output exactly.
    """
    array = _asp_array(workload.kernel)
    planes = array.element_bits // bits
    curve = []
    for k in range(1, planes + 1):
        keep = k * bits
        mask = ((1 << keep) - 1) << (array.element_bits - keep)
        inputs = dict(workload.inputs)
        inputs[array.name] = [v & mask for v in workload.inputs[array.name]]
        outputs = evaluate(workload.kernel, inputs)
        curve.append(workload.accuracy(workload.decode(outputs)))
    return curve


class TestFamilyStructure:
    def test_registry_extends_paper_suite(self):
        assert set(NN_BENCHMARKS) == {"FC", "Pool", "MLP", "CNN"}
        assert set(ALL_BENCHMARKS) == set(BENCHMARKS) | set(NN_BENCHMARKS)
        assert not set(BENCHMARKS) & set(NN_BENCHMARKS)

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_kernels_validate(self, name):
        workload = make_workload(name, "tiny")
        workload.kernel.validate()
        assert workload.technique == "swp"
        assert workload.area == "NN Inference"

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_inputs_fit_arrays(self, name):
        workload = make_workload(name, "tiny")
        for array in workload.kernel.inputs():
            values = workload.inputs[array.name]
            assert len(values) == array.length
            if array.signed:
                half = 1 << (array.element_bits - 1)
                assert all(-half <= v < half for v in values)
            else:
                assert all(0 <= v <= array.value_mask for v in values)

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_classifiers_carry_accuracy_hook(self, name):
        workload = make_workload(name, "tiny")
        if name in CLASSIFIERS:
            assert workload.accuracy is not None
            score = workload.accuracy(workload.decoded_reference())
            assert 0.0 <= score <= 1.0
        else:
            assert workload.accuracy is None


class TestBitExactness:
    """Compiled NN builds vs the IR interpreter (the repo's ground truth)."""

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_precise_build_matches_interpreter(self, name):
        workload = make_workload(name, "tiny")
        run = AnytimeKernel(workload.kernel).run(workload.inputs)
        assert workload.decode(run.outputs) == workload.decoded_reference()

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    @pytest.mark.parametrize("bits", [4, 8])
    def test_anytime_converges_exactly(self, name, bits):
        workload = make_workload(name, "tiny")
        kernel = AnytimeKernel(
            workload.kernel, AnytimeConfig(mode="swp", bits=bits)
        )
        run = kernel.run(workload.inputs)
        reference = workload.decoded_reference()
        assert nrmse(reference, workload.decode(run.outputs)) < 1e-9


class TestProgressPolicy:
    """The NodPA-style progress-embedding resume policy."""

    def test_progress_commits_on_output_stores(self):
        workload = make_workload("MLP", "tiny")
        kernel = AnytimeKernel(
            workload.kernel, AnytimeConfig(mode="swp", bits=8)
        )
        trace = paper_traces(count=1, duration_ms=2000, base_seed=23)[0]
        run = kernel.run_intermittent(
            workload.inputs, trace, runtime="progress"
        )
        assert run.result.completed
        stats = run.result.runtime_stats
        assert stats.extra.get("progress_commits", 0) > 0
        # Progress commits preserve only the delta; the run still ends
        # bit-exact against the interpreter.
        assert workload.decode(run.outputs) == workload.decoded_reference()

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_replay_parity_on_nn_grid(self, monkeypatch, name):
        _serial_env(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        workload = make_workload(name, setup.scale)
        environment = calibrate_environment(
            measure_precise_cycles(workload), setup
        )
        reference = workload.decoded_reference()

        interp = interp_runs(
            workload, [("swp", 8)], "progress", setup, environment, reference
        )
        _worker_cache.clear()
        replay = run_benchmark(
            workload, "swp", 8, "progress", setup, environment, reference
        )
        assert replay.runs == interp  # field-by-field, accuracy too

    @pytest.mark.parametrize("name", NN_BENCHMARKS)
    def test_batch_parity_on_nn_grid(self, monkeypatch, name):
        _serial_env(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        workload = make_workload(name, setup.scale)
        environment = calibrate_environment(
            measure_precise_cycles(workload), setup
        )
        reference = workload.decoded_reference()

        interp = interp_runs(
            workload, [("swp", 8)], "progress", setup, environment, reference
        )
        _worker_cache.clear()
        batch = run_benchmark(
            workload, "swp", 8, "progress", setup, environment, reference
        )
        assert batch.runs == interp


class TestAccuracyReporting:
    """Top-1 accuracy rides next to NRMSE through the experiment stack."""

    def test_benchmark_reports_accuracy_next_to_nrmse(self):
        setup = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)
        workload = make_workload("MLP", "tiny")
        result = run_benchmark(workload, "swp", 8, "progress", setup)
        assert result.runs
        for run in result.runs:
            assert run.accuracy is not None
            assert 0.0 <= run.accuracy <= 1.0
            assert run.error is not None
        assert result.median_accuracy is not None

    def test_nrmse_only_workloads_stay_accuracy_free(self):
        setup = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)
        workload = make_workload("MatMul", "tiny")
        result = run_benchmark(workload, "swp", 8, "clank", setup)
        assert all(run.accuracy is None for run in result.runs)
        assert result.median_accuracy is None

    def test_top1_scores_trailing_logits(self):
        # Two samples, three classes; logits live after a hidden-layer
        # prefix the scorer must skip.
        scorer = top1_accuracy([2, 0], 3)
        decoded = [9.0, 9.0, 0.0, 1.0, 5.0, 4.0, -1.0, -2.0]
        assert scorer(decoded) == 1.0

    def test_top1_breaks_ties_toward_lowest_class(self):
        scorer = top1_accuracy([0, 1], 2)
        assert scorer([3.0, 3.0, 3.0, 3.0]) == 0.5


class TestAccuracyMonotonicity:
    """More bit-planes never cost accuracy at the grid's subword widths."""

    @pytest.mark.parametrize("name", CLASSIFIERS)
    @pytest.mark.parametrize("bits", [4, 8])
    def test_accuracy_non_decreasing_across_levels(self, name, bits):
        workload = make_workload(name, "tiny")
        curve = _masked_accuracy_curve(workload, bits)
        assert all(a <= b for a, b in zip(curve, curve[1:])), curve
        assert curve[-1] == workload.accuracy(workload.decoded_reference())

    def test_cnn_low_bit_curve_actually_improves(self):
        # At 2-bit subwords the first CNN level misclassifies; refinement
        # is visible, not vacuous.
        workload = make_workload("CNN", "tiny")
        curve = _masked_accuracy_curve(workload, 2)
        assert curve[0] < curve[-1]
        assert all(a <= b for a, b in zip(curve, curve[1:])), curve


class TestChaosCompliance:
    def test_progress_ships_in_default_runtimes(self):
        from repro.fault.campaign import DEFAULT_RUNTIMES

        assert "progress" in DEFAULT_RUNTIMES

    def test_campaign_hundred_scenarios_zero_violations(self):
        from repro.fault.campaign import run_campaign

        report = run_campaign(seed=20260806, count=100)
        assert report["violation_count"] == 0, report["violations"][:3]
        progress_rows = [
            row for row in report["scenarios"] if row["runtime"] == "progress"
        ]
        assert progress_rows, "campaign never exercised the progress runtime"
