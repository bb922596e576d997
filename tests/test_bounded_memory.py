"""Bounding per-process memory must never change a result.

The harness keeps compiled kernels, commit logs and trace sets in one
byte-budgeted LRU (``repro.experiments.common._worker_cache``). A record
keeps keyframe memory as sparse page deltas over one initial image
(``ReplayRecord.materialize_cpu``), and each paper trace is synthesized
the first time its index is needed. Evicting an entry only costs a
rebuild, so every check here compares against a run that never evicts,
or against the full-image snapshot path the deltas replaced.
"""

import random
import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import common
from repro.experiments.common import (
    ExperimentSetup,
    _run_config_group,
    _sample_specs,
    _sample_trace,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark_suite,
)
from repro.power.harvester import paper_traces
from repro.service import jobs
from repro.service.protocol import JobSpec
from repro.sim.replay import _FLAGS, SNAPSHOT_PAGE, record_run
from repro.workloads import make_workload
from tests.test_native_record import _program_kernel


@pytest.fixture(autouse=True)
def _fresh_cache():
    _worker_cache.clear()
    yield
    _worker_cache.clear()


def _serial_replay(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# -- sparse keyframe snapshots ----------------------------------------------


def _state(cpu):
    ram = [bytes(r.data) for r in cpu.memory.regions if r.device is None]
    return cpu.pc, cpu.halted, list(cpu.regs.regs), cpu.flags.snapshot(), ram


def _keyframes(record):
    """``(position, registers, flags, pc)`` of every keyframe."""
    return [
        (pos, list(record.kf_regs[16 * i:16 * i + 16]),
         _FLAGS[record.kf_flags[i]], record.kf_pc[i])
        for i, pos in enumerate(record.kf_pos)
    ]


def _full_image_cpu(record, kernel, inputs, reg_pos, mem_pos):
    """The full-snapshot materialization the sparse deltas replaced:
    a keyframe's memory is the whole initial image with the store log
    up to the keyframe applied."""
    cpu = kernel.make_cpu(inputs)
    keyframes = _keyframes(record)
    positions = [kf[0] for kf in keyframes]
    kf_pos, regs, flags, pc = keyframes[bisect_right(positions, reg_pos) - 1]
    record.apply_stores(cpu.memory, 0, kf_pos)
    cpu.regs.restore(list(regs))
    cpu.flags.restore(flags)
    cpu.pc = pc
    cpu.halted = False
    for _ in range(reg_pos - kf_pos):
        cpu.step()
    record.apply_stores(cpu.memory, reg_pos, mem_pos)
    return cpu


def _check_every_keyframe(record, kernel, inputs):
    """Sparse materialization at each keyframe equals the initial image
    advanced through the store log, keyframe by keyframe."""
    reference = kernel.make_cpu(inputs)
    ref_ram = [r.data for r in reference.memory.regions if r.device is None]
    done = 0
    for kf_pos, regs, flags, pc in _keyframes(record):
        record.apply_stores(reference.memory, done, kf_pos)
        done = kf_pos
        cpu = record.materialize_cpu(kernel, inputs, kf_pos, kf_pos)
        ram = [r.data for r in cpu.memory.regions if r.device is None]
        assert ram == ref_ram, f"memory differs at keyframe {kf_pos}"
        assert (cpu.pc, list(cpu.regs.regs), cpu.flags.snapshot()) == (
            pc, list(regs), flags
        )


def _check_random_pairs(record, kernel, inputs, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        reg_pos = rng.randrange(record.length + 1)
        mem_pos = rng.randrange(reg_pos, record.length + 1)
        sparse = _state(record.materialize_cpu(kernel, inputs, reg_pos, mem_pos))
        full = _state(_full_image_cpu(record, kernel, inputs, reg_pos, mem_pos))
        assert sparse == full, (reg_pos, mem_pos)


class TestSparseKeyframes:
    @pytest.mark.parametrize("name,mode,bits", [
        ("MatMul", "swp", 4), ("Home", "swv", 4), ("CNN", "swp", 1),
    ])
    def test_sparse_equals_full_image(self, name, mode, bits):
        workload = make_workload(name, "tiny")
        kernel = build_anytime(workload, mode, bits)
        record = record_run(kernel, workload.inputs)
        assert record.replayable
        # Random pairs first, on a cold record: deltas then build from
        # scratch and from whichever earlier snapshot exists.
        _check_random_pairs(record, kernel, workload.inputs, seed=bits, count=12)
        _check_every_keyframe(record, kernel, workload.inputs)
        # Every delta cached now: the same pairs restore them.
        _check_random_pairs(record, kernel, workload.inputs, seed=bits, count=12)
        largest = max(len(delta) for delta in record._kf_deltas.values())
        assert largest < sum(r.size for r in kernel.make_cpu(workload.inputs).memory.regions)

    def test_store_straddling_a_page_writes_both_pages(self):
        address = 3 * SNAPSHOT_PAGE - 2
        kernel = _program_kernel(f"""
            MOV R1, #{address}
            MOV R2, #0x11223344
            STR R2, [R1, #0]
            MOV R3, #0x5A
            STRB R3, [R1, #1]
            MOV R4, #0x7788
            STRH R4, [R1, #2]
            HALT
        """)
        record = record_run(kernel, {}, keyframe_interval=1)
        assert record.replayable
        _check_every_keyframe(record, kernel, {})
        assert [offset for _region, offset, _length in record._pages] == [
            2 * SNAPSHOT_PAGE, 3 * SNAPSHOT_PAGE,
        ]
        last = record.materialize_cpu(kernel, {}, record.length, record.length)
        assert last.memory.read_bytes(address, 4) == bytes([0x44, 0x5A, 0x88, 0x77])
        _check_random_pairs(record, kernel, {}, seed=3, count=20)


# -- lazily built traces -----------------------------------------------------


class TestLazyTraces:
    def test_one_index_builds_only_that_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        setup = ExperimentSetup(scale="tiny", trace_count=4, trace_duration_ms=600,
                                trace_seed=77)
        workload = make_workload("Var", "tiny")
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        specs = _sample_specs(workload, "precise", None, "clank", setup,
                              environment, None)
        want = paper_traces(count=4, duration_ms=600, base_seed=77)
        third = [spec for spec in specs if spec.trace_index == 2][0]
        assert _sample_trace(third).samples == want[2].samples
        built = _worker_cache.get(common._trace_key(third))
        assert [trace is not None for trace in built] == [False, False, True, False]
        for spec in specs:
            assert _sample_trace(spec).samples == want[spec.trace_index].samples


# -- the byte-budgeted cache -------------------------------------------------


def _matmul_grid(runtime, setup):
    workload = make_workload("MatMul", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    configs = [("precise", None), ("swp", 8), ("swp", 4)]
    return run_benchmark_suite(workload, configs, runtime, setup, environment)


class TestWorkerCache:
    @pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus", "progress"])
    def test_zero_budget_grid_equals_default(self, monkeypatch, runtime):
        """Every entry evicted as soon as it is added: every group
        re-compiles, re-records and re-synthesizes, and nothing moves."""
        _serial_replay(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        evictions = _worker_cache.stats()["evictions"]
        default = _matmul_grid(runtime, setup)
        assert _worker_cache.stats()["evictions"] == evictions
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 0)
        _worker_cache.clear()
        starved = _matmul_grid(runtime, setup)
        stats = _worker_cache.stats()
        assert stats["bytes"] == 0 and stats["evictions"] > evictions
        for want, got in zip(default, starved):
            assert got.runs == want.runs
            assert [r.metrics for r in got.runs] == [r.metrics for r in want.runs]
            assert [r.ledger for r in got.runs] == [r.ledger for r in want.runs]

    def test_threads_with_tiny_budget_match_serial(self, monkeypatch):
        """Two pool threads on overlapping kernel and trace keys, with a
        budget smaller than one materialized record, so entries are
        evicted under each other's feet."""
        _serial_replay(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=1)
        workload = make_workload("MatMul", "tiny")
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        groups = [
            _sample_specs(workload, mode, bits, runtime, setup, environment, None)
            for mode, bits in (("swp", 8), ("swp", 4), ("precise", None))
            for runtime in ("clank", "progress")
        ]
        serial = [_run_config_group(group) for group in groups]
        # A materialized MatMul tiny skim record takes 190-400 KB.
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 128 << 10)
        _worker_cache.clear()
        evictions = _worker_cache.stats()["evictions"]

        def run_all(order):
            return {index: _run_config_group(groups[index]) for index in order}

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(3):
                order = list(range(len(groups)))
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [pool.submit(run_all, order),
                               pool.submit(run_all, order[::-1])]
                    for future in futures:
                        for index, runs in future.result(timeout=300).items():
                            assert runs == serial[index], index
                stats = _worker_cache.stats()
                assert stats["bytes"] <= stats["budget"]
        finally:
            sys.setswitchinterval(switch)
        assert _worker_cache.stats()["evictions"] > evictions

    def test_soak_distinct_trace_seeds_stays_bounded(self, monkeypatch):
        """40 service jobs, each with a new trace seed, in one process:
        the accounted bytes never pass the budget and the trace sets
        stop growing once the budget is full."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        budget = 2 << 20
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", budget)
        counts = []
        set_bytes = None
        evictions = _worker_cache.stats()["evictions"]
        for index in range(40):
            spec = JobSpec(
                workload="MatMul", mode="swp", bits=8,
                runtime=("clank", "progress")[index % 2], scale="tiny",
                trace_count=3, invocations=1, trace_seed=5000 + index,
            )
            jobs.compute(jobs.prepare(spec), progress=lambda *_args: None)
            stats = _worker_cache.stats()
            assert stats["bytes"] <= stats["budget"] == budget
            keys = [key for key in _worker_cache.keys() if key[0] == "traces"]
            counts.append(len(keys))
            if set_bytes is None:
                set_bytes = _worker_cache.get(keys[0]).nbytes()
        assert stats["evictions"] > evictions
        assert max(counts) <= budget // set_bytes
        assert counts[-1] < 40
