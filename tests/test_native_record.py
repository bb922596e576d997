"""The native recorder must give exactly the Python recorder's record.

``repro.sim.replay.record_run`` executes on the C core
(``repro.sim.native``) and hands every run that does not halt cleanly
back to ``record_run_python``, the per-instruction golden model. Every
field the replay engine reads is compared, array typecodes included:
on every valid (workload, mode, bits) at tiny scale, on each kernel's
default-scale precise build, on random programs that cover the
interpreter's quirks, and on every way a recording can end
non-replayable.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnytimeConfig
from repro.experiments.common import build_anytime
from repro.isa import assemble
from repro.sim import (
    CPU,
    SENSOR_BASE,
    Multiplier,
    SensorFIFO,
    attach_sensor,
    default_memory,
    native,
)
from repro.sim.replay import record_run, record_run_python
from repro.workloads import ALL_BENCHMARKS, make_workload
from tests.test_fast_interpreter import (
    SCRATCH,
    SCRATCH_WORDS,
    _materialize,
    _random_body,
)

#: Every ReplayRecord field the replay engine and the profiler read.
FIELDS = (
    "pcs", "cum_cost", "mem_kind", "mem_addr", "mem_size", "store_pos",
    "store_addr", "store_size", "store_value", "skim_pos", "skim_target",
    "keyframes", "keyframe_interval", "length", "final_outputs",
    "replayable", "reason", "peek_costs",
)

VALID_BITS = {"swp": (1, 2, 3, 4, 8), "swv": (4, 8)}


def _assert_same(record, golden, label=None):
    for name in FIELDS:
        got, want = getattr(record, name), getattr(golden, name)
        assert type(got) is type(want), (label, name)
        typecodes = [getattr(value, "typecode", None) for value in (got, want)]
        assert typecodes[0] == typecodes[1], (label, name)
        assert got == want, (label, name)


def _configs():
    for name in ALL_BENCHMARKS:
        technique = make_workload(name, "tiny").technique
        yield name, "tiny", "precise", None
        for bits in VALID_BITS[technique]:
            yield name, "tiny", technique, bits
        yield name, "default", "precise", None


class _ProgramKernel:
    """``record_run``'s kernel interface over a bare program: default
    memory with a scratch window staged, read back as the output."""

    def __init__(self, program, words=(), memory_hook=None, full_width=16):
        self.config = AnytimeConfig()
        self.program = program
        self.words = list(words) or [0] * SCRATCH_WORDS
        self.memory_hook = memory_hook
        self.full_width = full_width

    def make_cpu(self, inputs, cpu_cls=CPU):
        memory = default_memory()
        memory.write_words(SCRATCH, self.words)
        if self.memory_hook is not None:
            self.memory_hook(memory)
        return cpu_cls(
            self.program, memory,
            multiplier=Multiplier(full_width=self.full_width),
        )

    def read_outputs(self, cpu):
        return {"scratch": cpu.memory.read_words(SCRATCH, SCRATCH_WORDS)}


def _program_kernel(source, **kwargs):
    return _ProgramKernel(assemble(source), **kwargs)


class TestLoader:
    def test_compiler_on_path_means_the_core_loads(self):
        """Fails, never skips, when a compiler exists but the library
        did not build or load: CI must not fall back silently."""
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert native.load() is not None

    def test_fresh_cache_builds_once_and_reuses(self, tmp_path, monkeypatch):
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(native, "_cache_dirs", lambda: iter([tmp_path]))
        built = native._build()
        assert built.parent == tmp_path
        assert [p.name for p in tmp_path.iterdir()] == [built.name]
        native._open(built)

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached library must not be rebuilt")

        monkeypatch.setattr(native.subprocess, "run", no_compiler)
        assert native._build() == built

    def test_unavailable_core_gives_identical_record(self, monkeypatch):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "swp", 4)
        fast = record_run(kernel, workload.inputs)
        monkeypatch.setattr(native, "load", lambda: None)
        slow = record_run(kernel, workload.inputs)
        assert fast.recorder == "native"
        assert slow.recorder == "python:unavailable"
        _assert_same(fast, slow)


class TestWorkloadParity:
    @pytest.mark.parametrize("name,scale,mode,bits", list(_configs()))
    def test_native_equals_python(self, name, scale, mode, bits):
        workload = make_workload(name, scale)
        kernel = build_anytime(workload, mode, bits)
        record = record_run(kernel, workload.inputs)
        assert record.recorder == "native"
        assert record.replayable
        _assert_same(record, record_run_python(kernel, workload.inputs))

    def test_concurrent_recordings_match_serial(self):
        """ctypes drops the GIL for the run; two threads recording at
        once each touch only their own fresh CPU."""
        kernels = []
        for name in ("Var", "MatMul"):
            workload = make_workload(name, "tiny")
            kernel = build_anytime(workload, "swp", 2)
            kernels.append((kernel, workload.inputs))
        serial = [record_run(kernel, inputs) for kernel, inputs in kernels]
        barrier = threading.Barrier(2)

        def record(pair):
            barrier.wait(timeout=60)
            return record_run(*pair)

        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(record, kernels, timeout=120))
        for got, want in zip(threaded, serial):
            assert got.recorder == "native"
            _assert_same(got, want)


class TestRandomPrograms:
    @settings(deadline=None, max_examples=1000)
    @given(st.integers(0, 10**9), st.integers(5, 60),
           st.sampled_from([1, 3, 256]))
    def test_native_equals_python(self, seed, size, interval):
        rng = random.Random(seed)
        program = _materialize(_random_body(rng, size), rng)
        words = [rng.randrange(0, 2**32) for _ in range(SCRATCH_WORDS)]
        kernel = _ProgramKernel(program, words)
        record = record_run(kernel, {}, keyframe_interval=interval)
        assert record.recorder == "native"
        _assert_same(
            record, record_run_python(kernel, {}, keyframe_interval=interval)
        )


def _with_sensor(memory):
    sensor = SensorFIFO()
    sensor.push_many([7, 8, 9])
    attach_sensor(memory, sensor)


class TestNonReplayableParity:
    """Every ending but a clean HALT is the Python loop's verdict."""

    @pytest.mark.parametrize("kernel,limit,cause,reason", [
        (_program_kernel("""
            MOV R1, #0x20000000
            STR R1, [R1, #0]
            HALT
        """), None, "unsafe-access",
         "access at 0x20000000 leaves non-volatile RAM"),
        (_program_kernel(f"""
            MOV R1, #{SENSOR_BASE}
            LDR R0, [R1, #0]
            HALT
        """, memory_hook=_with_sensor), None, "unsafe-access",
         f"access at {SENSOR_BASE:#010x} leaves non-volatile RAM"),
        (_program_kernel("""
            MOV R1, #0x10000000
            LDR R0, [R1, #0]
            HALT
        """), None, "fault",
         "recording run faulted: access to unmapped address 0x10000000 (+4)"),
        (_program_kernel("""
            MOV R0, #1000
            BX R0
            HALT
        """), None, "fault", "recording run faulted: PC out of range: 1000"),
        (_program_kernel("""
            MOV R0, #0
        loop:
            ADD R0, R0, #1
            B loop
        """), 10, "limit", "instruction limit exceeded while recording"),
        (_program_kernel("""
            MOV R0, #3
            MUL R0, R0
            HALT
        """, full_width=8), None, "cost",
         "cost of pc 1 (8) strays from its worst case (16) by more than one "
         "cycle"),
    ], ids=["sram", "device", "unmapped", "bx-out-of-range", "limit", "cost"])
    def test_program_endings(self, kernel, limit, cause, reason):
        kwargs = {} if limit is None else {"max_instructions": limit}
        record = record_run(kernel, {}, **kwargs)
        assert record.recorder == f"python:{cause}"
        assert not record.replayable
        assert record.reason == reason
        _assert_same(record, record_run_python(kernel, {}, **kwargs))

    def test_memoization_config(self):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(
            workload, "swp", 8, memoization=True, zero_skipping=True
        )
        record = record_run(kernel, workload.inputs)
        assert record.recorder == "python:config"
        assert not record.replayable
        _assert_same(record, record_run_python(kernel, workload.inputs))
