"""The replay engine's lanes must be bit-exact.

The harness walks each configuration's commit log once for all its
(trace, invocation) samples. Everything observable must match the
interpreter (``_run_sample`` per spec, the golden model): SampleRun
fields (the repo's differential bar), metrics
and ledger buckets *exactly* (both engines classify useful/reexec/
overhead identically, skim handoffs included), trace events, sample
deadlines and fault-injected grids; results are byte-identical between
serial and ``REPRO_JOBS`` runs. The vectorized WAR index is
additionally checked one-to-one against the scalar scan, and the
Clank/progress chunk walk against the per-event loop, at every chunk
of real lane walks (``tests/golden.py``).
"""

import copy
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import (
    ExperimentSetup,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.power.capacitor import Capacitor
from repro.power.energy import EnergyModel
from repro.isa.instructions import MEM_OPS
from repro.runtime.clank import ClankReplayPolicy
from repro.runtime.table import RUNTIME_NAMES
from repro.sim.batch_replay import BatchIndex
from repro.sim.replay import record_run
from repro.workloads import ALL_BENCHMARKS, make_workload
from tests.golden import interp_runs, per_event_run_chunk, war_scan
from tests.test_fast_interpreter import SCRATCH_WORDS, _materialize, _random_body
from tests.test_native_record import VALID_BITS, _ProgramKernel


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


def _rollups(runs):
    """(counters-sans-engine, histograms, ledger) per sample — the
    strict comparison every engine and execution mode must share."""
    out = []
    for run in runs:
        counters = {
            k: v
            for k, v in (run.metrics or {}).get("counters", {}).items()
            if not k.startswith("engine.")
        }
        out.append(
            (counters, (run.metrics or {}).get("histograms"), run.ledger)
        )
    return out


class TestGridDifferential:
    def test_fig10_grid_batch_identical(self, monkeypatch):
        """Full Figure-10 MatMul grid: batch == interpreter, and every
        sample actually ran on the batch engine (no silent demotion)."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]

        interp = interp_runs(workload, configs, "clank", setup, environment, reference)
        _worker_cache.clear()
        batch = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert len(interp) == 3 * setup.trace_count * setup.invocations
        assert batch == interp  # SampleRun dataclass: field-by-field equality
        batched = sum(
            (run.metrics or {}).get("counters", {}).get("engine.replay", 0)
            for run in batch
        )
        assert batched == len(batch), "some samples demoted off the batch path"

    @pytest.mark.parametrize("workload_name", ["MatMul", "Var"])
    @pytest.mark.parametrize("runtime", RUNTIME_NAMES)
    def test_runtime_grid_batch_identical(
        self, monkeypatch, workload_name, runtime
    ):
        """Every runtime policy batches exactly, on two workloads."""
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
        batch = run_benchmark(
            workload, workload.technique, 8, runtime, setup, environment, reference
        )

        assert batch.runs == interp

    @pytest.mark.parametrize(
        "workload_name, runtime", [("MatMul", "clank"), ("MLP", "progress")]
    )
    def test_replay_matches_interp_rollups_exactly(
        self, monkeypatch, workload_name, runtime
    ):
        """Metrics and ledger buckets — excluded from SampleRun equality
        — must match the interpreter to the last integer and float, on
        grids whose samples take skims: the live suffix after a skim
        handoff repays the re-execution debt the replay side queued."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload(workload_name, setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [(workload.technique, 8), (workload.technique, 4)]

        interp = interp_runs(workload, configs, runtime, setup, environment, reference)
        _worker_cache.clear()
        replay = _grid_runs(workload, configs, runtime, setup, environment, reference)

        assert any(run.skim_taken for run in interp), "grid took no skims"
        assert replay == interp
        assert _rollups(replay) == _rollups(interp)
        assert all(
            run.metrics["counters"].get("engine.replay") == 1 for run in replay
        )

    def test_batch_serial_equals_parallel_jobs(self, monkeypatch):
        """REPRO_JOBS shards by config; results must be byte-identical
        to the serial run, rollups included."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]

        _worker_cache.clear()
        serial = _grid_runs(workload, configs, "clank", setup, environment, reference)
        monkeypatch.setenv("REPRO_JOBS", "4")
        _worker_cache.clear()
        parallel = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert parallel == serial
        assert _rollups(parallel) == _rollups(serial)

    def test_nonreplayable_record_demotes_every_lane(self, monkeypatch):
        """Memoization makes cycle costs history-dependent, so its
        record is non-replayable; run_batch_group must hand every lane
        back to the caller instead of walking the log."""
        from repro.runtime.batch_executor import run_batch_group
        from repro.experiments.common import paper_traces

        _serial_env(monkeypatch)
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(
            workload, workload.technique, 8, memoization=True,
            zero_skipping=True,
        )
        record = record_run(kernel, workload.inputs)
        assert not record.replayable
        lane_args = [
            {
                "trace": trace,
                "runtime": "clank",
                "capacitor": Capacitor(),
                "energy_model": EnergyModel(),
                "start_tick": 0,
                "max_wall_ms": 10_000,
                "watchdog_cycles": 500,
            }
            for trace in paper_traces(count=3, duration_ms=200, base_seed=7)
        ]
        results = run_batch_group(kernel, record, workload.inputs, lane_args)
        assert results == [None] * len(lane_args)
        assert run_batch_group(kernel, record, workload.inputs, []) == []


class TestLaneWalkHooks:
    """What the per-sample walk used to own: trace events, sample
    deadlines and fault-injected traces, now served by the lanes."""

    def test_traced_grid_accounts_every_sample(self, monkeypatch, tmp_path):
        """Traced lanes run as one-lane groups: every sample's events sit
        between its own sample_start/sample_end, nothing is orphaned,
        and the traced samples equal the untraced ones."""
        from repro.observability import TRACER, summarize_trace

        _serial_env(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        configs = [("precise", None), (workload.technique, 4)]
        plain = {
            runtime: _grid_runs(workload, configs, runtime, setup, environment, None)
            for runtime in ("clank", "nvp")
        }
        _worker_cache.clear()  # the traced run records (and says so)
        path = tmp_path / "replay.jsonl"
        TRACER.enable(str(path))
        try:
            traced = {
                runtime: _grid_runs(
                    workload, configs, runtime, setup, environment, None
                )
                for runtime in ("clank", "nvp")
            }
        finally:
            TRACER.disable()

        assert traced == plain
        summary = summarize_trace(str(path))
        assert len(summary.samples) == sum(len(runs) for runs in traced.values())
        assert set(summary.engines) == {"replay"}
        assert not summary.orphan_events
        assert not summary.fallback_reasons
        assert summary.event_counts["record_run"] == 2
        assert summary.outages == sum(
            run.outages for runs in traced.values() for run in runs
        )
        assert summary.outages == sum(s.outages for s in summary.samples)

    def test_sample_timeout_raises_inside_lane_walk(self, monkeypatch):
        """An expired REPRO_SAMPLE_TIMEOUT deadline stops the lane walk
        itself with a typed SampleTimeout — it is not a demotion, so
        the interpreter never runs. The precise build takes no skim, so
        no live handoff could raise it instead."""
        from repro.core.anytime import AnytimeKernel
        from repro.errors import SampleTimeout

        _serial_env(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        args = (workload, "precise", None, "clank", setup, environment)
        warm = run_benchmark(*args)  # records outside the deadline
        assert warm.runs

        monkeypatch.setattr(
            AnytimeKernel, "run_intermittent",
            lambda *a, **k: pytest.fail("lane demoted to the interpreter"),
        )
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "1e-9")
        with pytest.raises(SampleTimeout):
            run_benchmark(*args)

    @pytest.mark.parametrize(
        "workload_name, runtime",
        [("MatMul", "clank"), ("Home", "hibernus"), ("MLP", "progress")],
    )
    def test_fault_grid_matches_interp(self, monkeypatch, workload_name, runtime):
        """Under REPRO_FAULTS each lane replays its own adversarial
        trace and lands exactly where the interpreter does."""
        _serial_env(monkeypatch)
        monkeypatch.setenv("REPRO_FAULTS", "7")
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        workload = make_workload(workload_name, setup.scale)
        environment = _environment(workload, setup)
        configs = [("precise", None), (workload.technique, 8)]

        interp = interp_runs(workload, configs, runtime, setup, environment)
        _worker_cache.clear()
        replay = _grid_runs(workload, configs, runtime, setup, environment, None)

        assert replay == interp
        assert _rollups(replay) == _rollups(interp)
        assert all(
            run.metrics["counters"].get("engine.replay") == 1 for run in replay
        )


class TestConcurrentGroups:
    def test_threads_sharing_a_record_match_serial(self, monkeypatch):
        """The service's pool runs jobs of one configuration on two
        threads, and they share one commit log through
        ``_worker_cache``. Each job must come out exactly as it does
        alone: the record's materialized CPU and WAR scans are shared
        mutable state, so interleaved groups used to reset each other's
        CPU mid-run (wrong samples, or ``CpuFault: CPU is halted``)."""
        import sys
        from concurrent.futures import ThreadPoolExecutor
        from dataclasses import replace

        from repro.experiments.common import (
            _run_config_group,
            _sample_specs,
            worker_build,
        )

        _serial_env(monkeypatch)
        workload = make_workload("MatMul", "tiny")
        setup = _setup()
        environment = _environment(workload, setup)
        jobs = [
            _sample_specs(
                workload, "swp", 4, runtime, replace(setup, trace_seed=seed),
                environment, None,
            )
            for runtime, seed in (
                ("clank", 11), ("progress", 12), ("clank", 13), ("nvp", 14)
            )
        ]
        serial = [_run_config_group(specs) for specs in jobs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(10):
                # One fresh record, shared by all four jobs.
                _worker_cache.clear()
                record = worker_build(workload, "swp", 4, recorded=True).record
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [
                        pool.submit(_run_config_group, specs) for specs in jobs
                    ]
                    results = [future.result(timeout=120)
                               for future in futures]
                assert results == serial
                assert worker_build(workload, "swp", 4).record is record
        finally:
            sys.setswitchinterval(switch)
            _worker_cache.clear()


class TestVectorKernels:
    def test_war_oracle_matches_scalar_scan(self):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, workload.technique, 8)
        record = record_run(kernel, workload.inputs)
        assert record.replayable
        index = BatchIndex(record)
        starts = sorted(
            set(range(0, record.length + 1, 37)) | set(record.store_pos[:50])
        )
        for start in starts:
            assert index.war_from(start) == war_scan(record, start), (
                f"WAR divergence at start={start}"
            )

    def test_war_oracle_beyond_the_first_window(self):
        """CNN swp-4, whose index has the most rows of the tiny builds:
        starts whose first triggering row lies past the first window of
        64 rows, or past the second of 256 more, and starts with no WAR
        at all, answer as the scan does."""
        workload = make_workload("CNN", "tiny")
        kernel = build_anytime(workload, workload.technique, 4)
        record = record_run(kernel, workload.inputs)
        index = BatchIndex(record)
        ns, pos, ps = index.war_ns, index.war_pos, index.war_ps
        assert (np.diff(ns) >= 0).all()
        second, later, none = [], [], []
        for start in range(0, record.length + 1, 7):
            first = int(ns.searchsorted(start, side="right"))
            hits = np.flatnonzero((pos[first:] >= start) & (ps[first:] < start))
            if not hits.size:
                none.append(start)
            elif hits[0] >= 64 + 256:
                later.append(start)
            elif hits[0] >= 64:
                second.append(start)
        assert min(len(second), len(later), len(none)) > 100
        for start in second[::25] + later[::50] + none[::50] + [record.length]:
            assert index.war_from(start) == war_scan(record, start), start

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 10**9), st.integers(5, 160))
    def test_war_oracle_on_generated_programs(self, seed, size):
        """Random programs whose loads and stores share a few words, so
        write-after-read pairs nest; every start."""
        rng = random.Random(seed)
        body = [
            (op, dict(fields, imm=fields["imm"] % 24) if op in MEM_OPS else fields)
            for op, fields in _random_body(rng, size)
        ]
        program = _materialize(body, rng)
        words = [rng.randrange(0, 2**32) for _ in range(SCRATCH_WORDS)]
        record = record_run(_ProgramKernel(program, words), {})
        index = BatchIndex(record)
        for start in range(record.length + 1):
            assert index.war_from(start) == war_scan(record, start), start


def _walk_state(policy):
    """Everything a chunk walk may change on its policy."""
    skim = policy.skim
    return (
        policy.cursor, policy.max_position, policy.checkpoint_pos,
        dataclasses.asdict(policy.stats), policy._war_in_chunk,
        (skim.peek(), skim.quality_level, skim.set_count, skim.taken_count),
    )


class TestChunkWalkGolden:
    """``ClankReplayPolicy.run_chunk`` (clank and progress) against the
    per-event loop of ``tests/golden.py``, run on a copy of the policy
    before every chunk of real lane walks: every tiny build under
    fuzzed traces."""

    def test_every_chunk_matches_the_per_event_loop(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "7")
        real = ClankReplayPolicy.run_chunk
        seen = {"chunks": 0, "war": 0, "progress": 0, "skims": 0}
        mismatches = []

        def checked(policy, budget):
            twin = copy.copy(policy)
            twin.stats = copy.deepcopy(policy.stats)
            twin.skim = copy.copy(policy.skim)
            expected = per_event_run_chunk(twin, budget)
            before = _walk_state(policy)
            got = real(policy, budget)
            after = _walk_state(policy)
            if (got, after) != (expected, _walk_state(twin)) and len(mismatches) < 3:
                mismatches.append((policy.name, budget, before, got, after,
                                   expected, _walk_state(twin)))
            seen["chunks"] += 1
            seen["war"] += after[3]["war_violations"] > before[3]["war_violations"]
            seen["progress"] += (
                after[3]["extra"].get("progress_commits", 0)
                > before[3]["extra"].get("progress_commits", 0)
            )
            seen["skims"] += after[5][2] > before[5][2]
            return got

        monkeypatch.setattr(ClankReplayPolicy, "run_chunk", checked)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        _worker_cache.clear()
        try:
            for name in ALL_BENCHMARKS:
                workload = make_workload(name, setup.scale)
                environment = _environment(workload, setup)
                configs = [("precise", None)] + [
                    (workload.technique, bits)
                    for bits in VALID_BITS[workload.technique]
                ]
                for runtime in ("clank", "progress"):
                    run_benchmark_suite(
                        workload, configs, runtime, setup, environment
                    )
        finally:
            _worker_cache.clear()
        assert not mismatches, mismatches
        assert all(seen.values()), seen


class TestChaosSmoke:
    def test_hundred_scenarios_zero_violations_with_batch(self):
        """The chaos campaign's consistency oracle stays silent
        (covering the run_cycles live path the campaign's executors
        take)."""
        from repro.fault.campaign import run_campaign

        report = run_campaign(seed=1234, count=100)
        assert report["violation_count"] == 0, report["violations"][:3]
