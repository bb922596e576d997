"""The lean commit log must lose nothing the replay engine reads.

A record keeps 6 bytes per instruction (a uint16 PC and a uint32 cost
prefix) and 8 per access (position and address); an access's kind and
width come from its opcode through per-PC tables. Every check here is
against the interpreter or against the scalar code the lean layout
feeds:

* the per-PC tables match every access the interpreter makes, and the
  Python golden recorder refuses a record whose accesses disagree;
* a program or run outside the narrow columns' range records
  non-replayable, with its reason, and its samples equal the
  interpreter's;
* the vectorized WAR index, which drops accesses to bytes no store
  writes, equals the scalar scan (``tests/golden.py``) at every start
  position, and so does the record's memoized, clamped WAR query;
* the initial image keeps exactly its nonzero pages;
* calibration read off the precise build's log equals
  ``AnytimeKernel.run`` on every precise build, and the log's decoded
  final outputs equal the IR interpreter's reference exactly;
* threads materializing on their own region buffers, alternating across
  two shared records, equal a serial run.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.common import (
    ExperimentSetup,
    _run_config_group,
    _sample_specs,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark_suite,
    worker_build,
    worker_reference,
)
from repro.sim import replay
from repro.sim.batch_replay import BatchIndex
from repro.sim.memory import Region
from repro.sim.replay import (
    _SCAN_BLOCK,
    SNAPSHOT_PAGE,
    _nonzero_pages,
    access_tables,
    record_run,
    record_run_python,
)
from repro.workloads import ALL_BENCHMARKS, make_workload
from tests.golden import interp_runs, war_scan
from tests.test_native_record import VALID_BITS, _program_kernel


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    for key in ("REPRO_JOBS", "REPRO_FAULTS"):
        monkeypatch.delenv(key, raising=False)
    _worker_cache.clear()
    yield
    _worker_cache.clear()


def _tiny_builds():
    for name in ALL_BENCHMARKS:
        technique = make_workload(name, "tiny").technique
        yield name, "precise", None
        for bits in VALID_BITS[technique]:
            yield name, technique, bits


class TestAccessTables:
    @pytest.mark.parametrize("name,mode,bits", list(_tiny_builds()))
    def test_tables_match_every_interpreted_access(self, name, mode, bits):
        workload = make_workload(name, "tiny")
        kernel = build_anytime(workload, mode, bits)
        cpu = kernel.make_cpu(workload.inputs)
        kinds, sizes = access_tables(cpu.program)
        seen = []
        cpu.load_hook = lambda addr, size: seen.append((cpu.pc, 1, size))
        cpu.store_hook = lambda addr, size: seen.append((cpu.pc, 2, size)) or 0
        cpu.run()
        assert seen
        assert all((kinds[pc], sizes[pc]) == (kind, size) for pc, kind, size in seen)

    def test_golden_loop_refuses_a_disagreeing_access(self, monkeypatch):
        """A load whose table entry says store makes the record
        non-replayable, with the PC in the reason."""
        kernel = _program_kernel("""
            MOV R1, #0x100
            LDRH R2, [R1, #0]
            STR R2, [R1, #4]
            HALT
        """)
        real = access_tables

        def wrong(program):
            kinds, sizes = real(program)
            return kinds[:1] + bytes([2]) + kinds[2:], sizes

        assert record_run_python(kernel, {}).replayable
        monkeypatch.setattr(replay, "access_tables", wrong)
        record = record_run_python(kernel, {})
        assert not record.replayable
        assert record.reason == (
            "access of pc 1 (kind 1, 2 bytes) differs from its opcode's"
        )


class TestRangeGuards:
    SETUP = ExperimentSetup(scale="tiny", trace_count=2, invocations=2)

    @pytest.mark.parametrize("limit,value,reason", [
        ("MAX_PROGRAM", 20, "exceeds the commit log's 20-instruction range"),
        ("MAX_CYCLES", 5000, "run exceeds the commit log's 5000-cycle range"),
    ])
    def test_out_of_range_records_and_replays_on_the_interpreter(
        self, monkeypatch, limit, value, reason
    ):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "swp", 8)
        assert len(kernel.compiled.program.instructions) > 20
        environment = calibrate_environment(
            measure_precise_cycles(workload), self.SETUP
        )
        configs = [("precise", None), ("swp", 8)]
        want = interp_runs(workload, configs, "clank", self.SETUP, environment)

        monkeypatch.setattr(replay, limit, value)
        _worker_cache.clear()
        record = record_run(kernel, workload.inputs)
        assert record.recorder == "python:range"
        assert not record.replayable
        assert reason in record.reason
        # Calibration falls back to interpreting the precise build.
        assert measure_precise_cycles(workload) == (
            build_anytime(workload, "precise").run(workload.inputs).cycles
        )
        results = run_benchmark_suite(
            workload, configs, "clank", self.SETUP, environment
        )
        got = [run for result in results for run in result.runs]
        assert got == want
        assert all(run.metrics["counters"]["replay_fallbacks"] == 1 for run in got)


#: Accesses straddle words, bytes no store writes are read, and every
#: store lands on a read-first byte of an earlier load.
_STRADDLING = """
    MOV R1, #0x200
    MOV R3, #7
    LDR R2, [R1, #0]
    STRB R3, [R1, #3]
    LDRH R4, [R1, #6]
    STR R3, [R1, #5]
    LDRB R6, [R1, #20]
    STRH R3, [R1, #9]
    LDR R2, [R1, #8]
    STRB R3, [R1, #11]
    LDR R2, [R1, #1]
    STRH R3, [R1, #1]
    HALT
"""


class TestFilteredBatchIndex:
    def _assert_every_start(self, record):
        assert record.replayable
        index = BatchIndex(record)
        for start in range(record.length + 1):
            expected = war_scan(record, start)
            assert index.war_from(start) == expected, (
                f"WAR divergence at start={start}"
            )
            limit = start + 5
            assert record.next_war_before(start, limit) == min(expected, limit)

    @pytest.mark.parametrize("name,mode,bits", [("MatMul", "swp", 4),
                                                ("Home", "swv", 4)])
    def test_equals_scalar_scan_at_every_start(self, name, mode, bits):
        workload = make_workload(name, "tiny")
        kernel = build_anytime(workload, mode, bits)
        self._assert_every_start(record_run(kernel, workload.inputs))

    def test_straddling_program(self):
        record = record_run(_program_kernel(_STRADDLING), {}, keyframe_interval=1)
        self._assert_every_start(record)
        wars = {war_scan(record, s) for s in range(record.length)}
        assert wars - {record.length}, "the program must trigger WARs"


class TestCalibrationOnTheLog:
    @pytest.mark.parametrize("scale", ["tiny", "default"])
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_equals_the_interpreted_precise_build(self, name, scale):
        workload = make_workload(name, scale)
        cycles = build_anytime(workload, "precise").run(workload.inputs).cycles
        assert measure_precise_cycles(workload) == cycles
        entry = _worker_cache.get((name, scale, "precise", None))
        assert entry.record.replayable
        assert entry.record.cum_cost[-1] == cycles
        # The compiled precise build computes exactly what the IR does.
        assert workload.decode(entry.record.final_outputs) == (
            workload.decoded_reference()
        )

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_reference_off_the_log_at_paper_scale(self, name):
        """``repro run --scale paper`` takes its reference off the log
        too. A paper-scale record can outgrow the worker cache (Conv2d's
        does), so this reads it through ``worker_build``."""
        workload = make_workload(name, "paper")
        assert worker_build(workload, "precise", recorded=True).record.replayable
        assert worker_reference(workload) == workload.decoded_reference()


class TestSparseImage:
    def test_nonzero_pages_finds_every_staged_byte(self):
        """Block edges, a partial last page and a second region: each
        nonzero byte's page is kept, with its bytes, and nothing else."""
        regions = [Region("nvm", 0, 1 << 20, False),
                   Region("odd", 1 << 20, 1000, False)]
        offsets = [0, 255, 256, _SCAN_BLOCK - 1, _SCAN_BLOCK,
                   5 * _SCAN_BLOCK + 300, (1 << 20) - 1]
        for offset in offsets:
            regions[0].data[offset] = 0x5A
        regions[1].data[999] = 1
        pages = _nonzero_pages(regions)
        assert [(i, offset) for i, offset, _page in pages] == sorted(
            {(0, offset // SNAPSHOT_PAGE * SNAPSHOT_PAGE) for offset in offsets}
            | {(1, 768)}
        )
        for i, offset, page in pages:
            assert page == bytes(regions[i].data[offset:offset + SNAPSHOT_PAGE])
        assert len(pages[-1][2]) == 1000 - 768


class TestThreadBuffers:
    def test_threads_alternating_across_two_records_match_serial(self):
        """Each thread materializes on its own region buffers: two
        threads run the groups of two shared skim-taking records in
        opposite orders, so each record's CPU moves between them."""
        workload = make_workload("MatMul", "tiny")
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=1)
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        groups = [
            _sample_specs(workload, "swp", bits, runtime, setup, environment, None)
            for bits in (4, 8) for runtime in ("clank", "progress")
        ]
        serial = [_run_config_group(group) for group in groups]
        assert any(run.skim_taken for runs in serial for run in runs)

        def run_all(order):
            return {index: _run_config_group(groups[index]) for index in order}

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(5):
                order = [0, 2, 1, 3]
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [pool.submit(run_all, order),
                               pool.submit(run_all, order[::-1])]
                    for future in futures:
                        for index, runs in future.result(timeout=300).items():
                            assert runs == serial[index], index
        finally:
            sys.setswitchinterval(switch)

    def test_one_thread_holds_one_set_of_buffers(self):
        """Two records materialized by one thread share its buffers; a
        second thread gets its own."""
        workload = make_workload("MatMul", "tiny")
        records = []
        for bits in (4, 8):
            kernel = build_anytime(workload, "swp", bits)
            record = record_run(kernel, workload.inputs)
            record.materialize_cpu(kernel, workload.inputs, 5, 5)
            records.append(record)

        def buffers(record):
            return [region.data for region in record._mat_cache[2].memory.regions]

        first, second = (buffers(record) for record in records)
        assert all(a is b for a, b in zip(first, second))
        other = []

        def materialize_elsewhere():
            record = records[0]
            record.materialize_cpu(record._mat_cache[0], workload.inputs, 5, 5)
            other.append(buffers(record))

        thread = threading.Thread(target=materialize_elsewhere)
        thread.start()
        thread.join()
        assert all(a is not b for a, b in zip(first, other[0]))
