"""Both engines give the fault grid they have always given.

The replay lanes and the interpreter run every sample through one
intermittent loop (:func:`repro.runtime.executor._intermittent_loop`). A
bug in that loop shows on both sides of every replay-vs-interpreter
differential, so those suites cannot see it. The digests below are the
loop's independent oracle: the ``REPRO_FAULTS=7`` grid at tiny scale
(MatMul, Home and MLP; every runtime; precise, technique-8 and
technique-4; 3 traces x 2 invocations), hashed once as
``run_benchmark_suite`` returns it (replay) and once through
:func:`tests.golden.interp_runs` (interpreter). 138 of the 216 samples
take a skim, so the replay side covers the skim handoff.

A grid that is traced runs each sample as its own one-lane group, and
the Clank and progress policies then emit one ``checkpoint`` event per
commit from inside their chunk walk. The untraced digests never reach
that branch, so a third digest pins the ``REPRO_TRACE`` stream of a
traced replay grid (MatMul and Home on clank and progress) without its
``pid`` and ``recorder`` fields: the recorder is ``native`` or
``python:<cause>`` depending on whether the host has a C compiler.

Fuzzed traces use only ``random.Random`` and arithmetic, and the supply
uses only ``sqrt``, so the digests hold on any IEEE-754 host.

Recompute them only for a change that means to alter results, and
record it in CHANGES.md: the failing assertion shows the new digest.
Commit it with the commit it was computed at.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.common import (
    ExperimentSetup,
    _worker_cache,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark_suite,
)
from repro.observability import TRACER
from repro.runtime.table import RUNTIME_NAMES
from repro.workloads import make_workload
from tests.golden import interp_runs

WORKLOADS = ("MatMul", "Home", "MLP")
SAMPLES = len(WORKLOADS) * len(RUNTIME_NAMES) * 3 * 3 * 2
SKIMS = 138

#: sha256 of :func:`_encode` over the replayed grid, computed at commit
#: 41bde742707c.
REPLAY_DIGEST = "f76f8452030b973c4d58cdc392ccdf3ba5def8a01ec4a411845d73743ac62b17"
#: The same over the interpreted grid, computed at commit 41bde742707c.
INTERP_DIGEST = "1480d810452b2190fbd938499dd12c43238b8a42ee4b1da9c0ce46f932e38fdc"

TRACED_WORKLOADS = ("MatMul", "Home")
TRACED_RUNTIMES = ("clank", "progress")
TRACED_SAMPLES = len(TRACED_WORKLOADS) * len(TRACED_RUNTIMES) * 3 * 3 * 2
TRACED_SKIMS = 48
#: sha256 of :func:`_trace_digest` over the traced replay grid, computed
#: at commit cef4b55430b0.
TRACE_DIGEST = "90a29d3ff154a7b60294823aabad7864dd191652b55bdb142e9a3ab849c79e24"


def _grid(run_configs, workloads=WORKLOADS, runtimes=RUNTIME_NAMES):
    """Every sample of the grid, in (workload, runtime, config) order."""
    setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
    runs = []
    for name in workloads:
        workload = make_workload(name, setup.scale)
        environment = calibrate_environment(
            measure_precise_cycles(workload), setup
        )
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]
        for runtime in runtimes:
            runs.extend(run_configs(workload, configs, runtime, setup, environment))
    return runs


def _replayed(workload, configs, runtime, setup, environment):
    results = run_benchmark_suite(workload, configs, runtime, setup, environment)
    return [run for result in results for run in result.runs]


def _encode(runs) -> str:
    """sha256 over every field of every sample: the six result fields,
    ``accuracy``, the metrics rollup and the ledger buckets."""
    digest = hashlib.sha256()
    for run in runs:
        fields = dataclasses.asdict(run)
        digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def _trace_digest(path) -> str:
    """sha256 over every event of a trace file, each without its
    ``pid`` and ``recorder`` fields."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as file:
        for line in file:
            event = json.loads(line)
            event.pop("pid", None)
            event.pop("recorder", None)
            digest.update(json.dumps(event, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture
def fault_grid_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_FAULTS", "7")
    _worker_cache.clear()
    yield
    _worker_cache.clear()


def test_replayed_fault_grid_matches_the_digest(fault_grid_env):
    runs = _grid(_replayed)
    assert len(runs) == SAMPLES
    assert sum(run.skim_taken for run in runs) == SKIMS
    assert _encode(runs) == REPLAY_DIGEST


def test_interpreted_fault_grid_matches_the_digest(fault_grid_env):
    runs = _grid(interp_runs)
    assert len(runs) == SAMPLES
    assert sum(run.skim_taken for run in runs) == SKIMS
    assert _encode(runs) == INTERP_DIGEST


def test_traced_replay_walk_matches_the_digest(fault_grid_env, tmp_path):
    path = tmp_path / "walk.jsonl"
    TRACER.enable(str(path))
    try:
        runs = _grid(_replayed, TRACED_WORKLOADS, TRACED_RUNTIMES)
    finally:
        TRACER.disable()
    assert len(runs) == TRACED_SAMPLES
    assert sum(run.skim_taken for run in runs) == TRACED_SKIMS
    assert _trace_digest(path) == TRACE_DIGEST
