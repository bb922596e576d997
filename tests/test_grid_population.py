"""The figure grid's population: replay engine == interpreter.

The end-to-end benchmark's grid-cli workload runs the offline figure
path, and its output checks compare that path with the service, both
on the replay engine. This is the cross-engine check for the same
population: one seeded pass of ``bench/workloads.py``'s grid plan
({MatMul, MLP, Home, Conv2d} x every runtime x {precise, 8-bit, 4-bit}
on the CLI's 3 x 1 grid). Every configuration runs through
``run_benchmark_suite`` (replay) and sample by sample through
``_run_sample`` (the interpreter); SampleRuns, metrics and ledgers must
agree, and so must the calibrated environments.

The tier-1 suite runs it at tiny scale. CI runs it at default scale::

    PYTHONPATH=src python -m tests.test_grid_population default
"""

import importlib.util
import sys
from pathlib import Path

from repro.experiments.common import (
    ExperimentSetup,
    _run_sample,
    _sample_specs,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark_suite,
)
from repro.workloads import make_workload

#: A seed the benchmark's development runs did not use.
SEED = 905


def _bench_workloads():
    """``bench/workloads.py``, imported from its file (bench/ is not a
    package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rollup(run):
    """Metrics and ledger, without the counters that name the engine."""
    counters = {
        key: value for key, value in run.metrics["counters"].items()
        if not key.startswith("engine.") and key != "replay_fallbacks"
    }
    return counters, run.metrics["histograms"], run.ledger


def check_population(scale: str, seed: int = SEED) -> int:
    """Compare both engines on one pass of grid-cli's plan at ``scale``;
    returns the number of samples compared."""
    plans = _bench_workloads()
    grid_pass = plans.grid_plan(seed, passes=1)[0]
    setup = ExperimentSetup(
        scale=scale, trace_count=plans.GRID_TRACES,
        invocations=plans.GRID_INVOCATIONS, trace_seed=grid_pass["trace_seed"],
    )
    _worker_cache.clear()
    compared = 0
    for name, runtime in grid_pass["cells"]:
        workload = make_workload(name, scale)
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        interpreted = build_anytime(workload, "precise").run(workload.inputs)
        assert environment == calibrate_environment(interpreted.cycles, setup), name
        reference = workload.decoded_reference()
        for mode, bits in plans.grid_configs(name):
            label = (name, runtime, mode, bits)
            [result] = run_benchmark_suite(
                workload, [(mode, bits)], runtime, setup, environment, reference
            )
            interp = [
                _run_sample(spec) for spec in _sample_specs(
                    workload, mode, bits, runtime, setup, environment, reference
                )
            ]
            assert result.runs == interp, label
            assert [_rollup(run) for run in result.runs] == [
                _rollup(run) for run in interp
            ], label
            compared += len(interp)
    return compared


def test_grid_cli_population_matches_interpreter(monkeypatch):
    for key in ("REPRO_JOBS", "REPRO_FAULTS", "REPRO_STORE", "REPRO_RESUME"):
        monkeypatch.delenv(key, raising=False)
    plans = _bench_workloads()
    want = (len(plans.GRID_KERNELS) * len(plans.RUNTIMES) * 3
            * plans.GRID_TRACES * plans.GRID_INVOCATIONS)
    assert check_population("tiny") == want


if __name__ == "__main__":
    scale = sys.argv[1] if len(sys.argv) > 1 else "default"
    print(f"grid-cli population at {scale} scale: "
          f"{check_population(scale)} samples identical on both engines")
