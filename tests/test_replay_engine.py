"""The record-once/replay-per-trace engine must be bit-exact.

Every test here compares the replay engine (the harness's engine)
against the interpreter (``_run_sample`` per spec, the golden model) on
the same grid and asserts that every ``SampleRun`` field — wall_ms,
on_ms, active_cycles, outages, skim_taken, error — is identical. Any
observable divergence is a bug.
"""

import pytest

from repro.experiments.common import (
    ExperimentSetup,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.sim.replay import record_run
from repro.workloads import make_workload
from tests.golden import interp_runs


def _setup():
    return ExperimentSetup(scale="tiny")


def _environment(workload, setup):
    return calibrate_environment(measure_precise_cycles(workload), setup)


def _serial_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)


def _grid_runs(workload, configs, runtime, setup, environment, reference):
    results = run_benchmark_suite(
        workload, configs, runtime, setup, environment, reference
    )
    return [run for result in results for run in result.runs]


def test_fig10_grid_replay_identical(monkeypatch):
    """The full Figure-10 MatMul grid: 3 configs x 9 traces x 3 invocations."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("MatMul", setup.scale)
    environment = _environment(workload, setup)
    reference = workload.decoded_reference()
    configs = [("precise", None), (workload.technique, 8), (workload.technique, 4)]

    interp = interp_runs(workload, configs, "clank", setup, environment, reference)
    _worker_cache.clear()
    replay = _grid_runs(workload, configs, "clank", setup, environment, reference)

    assert len(interp) == 3 * setup.trace_count * setup.invocations
    assert replay == interp  # SampleRun dataclass: field-by-field equality


@pytest.mark.parametrize("workload_name", ["MatMul", "Var"])
@pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus"])
def test_runtime_grid_replay_identical(monkeypatch, workload_name, runtime):
    """Every runtime policy replays exactly, on two different workloads."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload(workload_name, setup.scale)
    environment = _environment(workload, setup)
    reference = workload.decoded_reference()

    interp = interp_runs(
        workload, [(workload.technique, 8)], runtime, setup, environment,
        reference,
    )
    _worker_cache.clear()
    replay = run_benchmark(
        workload, workload.technique, 8, runtime, setup, environment, reference
    )

    assert replay.runs == interp


def test_hibernus_grid_end_to_end(monkeypatch):
    """Grid-level hibernus check including the precise (no-skim) build."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("Home", setup.scale)
    environment = _environment(workload, setup)
    reference = workload.decoded_reference()
    configs = [("precise", None), (workload.technique, 8)]

    interp = interp_runs(workload, configs, "hibernus", setup, environment, reference)
    _worker_cache.clear()
    replay = _grid_runs(workload, configs, "hibernus", setup, environment, reference)

    assert replay == interp
    assert any(run.outages > 0 for run in interp), "grid exercised no outages"


def test_interpreter_sample_records_nothing(monkeypatch):
    """``_run_sample`` is the golden model: it interprets the sample
    and never builds a commit log, so a differential test compares two
    computations."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("Var", setup.scale)
    environment = _environment(workload, setup)
    _worker_cache.clear()
    runs = interp_runs(
        workload, [("precise", None)], "clank", setup, environment,
        workload.decoded_reference(),
    )
    entries = [_worker_cache.get(key) for key in _worker_cache.keys()]
    assert not [entry for entry in entries if getattr(entry, "record", None)]
    assert all(run.metrics["counters"]["engine.interp"] == 1 for run in runs)


def test_memoized_kernel_not_replayable():
    """Memoization makes cycle costs input-history-dependent; the
    recorder must refuse to mark such a run replayable."""
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, "swp", 8, memoization=True)
    record = record_run(kernel, workload.inputs)
    assert not record.replayable
    assert record.reason


def test_record_marks_completed_run_replayable():
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, "swp", 8)
    record = record_run(kernel, workload.inputs)
    assert record.replayable
    assert record.final_outputs  # run ran to completion under recording
    assert record.length > 0
    assert len(record.cum_cost) == record.length + 1
