"""Superinstruction fusion must be invisible except for speed.

``REPRO_SUPERBLOCK`` gates the fused dispatch tables at CPU
construction, so the same program can run both ways and every
observable — cycles, retired count, architectural state, memory,
budget boundaries and instruction-limit faults — is compared field by
field.
"""

from repro.experiments.common import build_anytime
from repro.isa import assemble
from repro.sim import CPU, default_memory
from repro.sim.cpu import CpuFault
from repro.sim.superblock import (
    MIN_DISPATCH_SPAN,
    span_table,
    superblock_enabled,
)
from repro.workloads import make_workload


def _pair(source, monkeypatch):
    """(fused, unfused) CPUs on the same program text."""
    program = assemble(source)
    monkeypatch.setenv("REPRO_SUPERBLOCK", "1")
    fused = CPU(program, default_memory())
    monkeypatch.setenv("REPRO_SUPERBLOCK", "0")
    plain = CPU(assemble(source), default_memory())
    return fused, plain


def _state(cpu):
    return (
        cpu.pc,
        cpu.halted,
        list(cpu.regs),
        [bytes(r.data) for r in cpu.memory.regions if r.device is None],
    )


STRAIGHT_THEN_LOOP = """
    MOV R1, #0
    MOV R2, #10
loop:
    ADD R1, R1, #3
    SUB R3, R1, #1
    AND R4, R1, R3
    ORR R5, R4, #1
    SUB R2, R2, #1
    CMP R2, #0
    BNE loop
    HALT
"""


class TestSpanTable:
    def test_spans_respect_minimums_and_control_flow(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPERBLOCK", "1")
        cpu = CPU(assemble(STRAIGHT_THEN_LOOP), default_memory())
        table = span_table(cpu.program, cpu._metas)
        metas = cpu._metas
        for pc, length in enumerate(table.dispatch):
            if length == 0:
                continue
            assert length >= MIN_DISPATCH_SPAN
            # every member but the last is straight-line
            for j in range(length - 1):
                m = metas[pc + j]
                assert not m.is_branch and m.op != "HALT"

    def test_env_flag_disables_fusion(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPERBLOCK", "0")
        assert not superblock_enabled()
        cpu = CPU(assemble(STRAIGHT_THEN_LOOP), default_memory())
        assert cpu._superblocks is None
        monkeypatch.delenv("REPRO_SUPERBLOCK")
        assert superblock_enabled()


class TestFusedDispatch:
    def test_run_matches_unfused(self, monkeypatch):
        fused, plain = _pair(STRAIGHT_THEN_LOOP, monkeypatch)
        assert fused._superblocks is not None
        assert fused.run() == plain.run()
        assert _state(fused) == _state(plain)

    def test_run_workload_kernel_matches(self, monkeypatch):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, workload.technique, 8)
        monkeypatch.setenv("REPRO_SUPERBLOCK", "1")
        with_blocks = kernel.run(workload.inputs)
        monkeypatch.setenv("REPRO_SUPERBLOCK", "0")
        without = kernel.run(workload.inputs)
        assert with_blocks.cycles == without.cycles
        assert with_blocks.outputs == without.outputs

    def test_run_cycles_chunked_matches(self, monkeypatch):
        import random

        rng = random.Random(5)
        fused, plain = _pair(STRAIGHT_THEN_LOOP, monkeypatch)
        while not (fused.halted and plain.halted):
            budget = rng.randrange(0, 7)
            assert fused.run_cycles(budget) == plain.run_cycles(budget)
            assert _state(fused) == _state(plain)

    def test_exact_fit_boundary_matches(self, monkeypatch):
        # The fused block only commits when its whole worst-case sum
        # fits; the budget boundary must land identically either way.
        for budget in range(0, 20):
            fused, plain = _pair(STRAIGHT_THEN_LOOP, monkeypatch)
            assert fused.run_cycles(budget) == plain.run_cycles(budget)
            assert _state(fused) == _state(plain)

    def test_instruction_limit_boundary_matches(self, monkeypatch):
        # Limits that land mid-block, at block edges, and past HALT all
        # fault (or not) exactly like the scalar loop.
        for limit in list(range(0, 12)) + [80, 81, 82, 83, 200]:
            fused, plain = _pair(STRAIGHT_THEN_LOOP, monkeypatch)
            fused_fault = plain_fault = None
            try:
                fused_cycles = fused.run(max_instructions=limit)
            except CpuFault as exc:
                fused_fault = str(exc)
            try:
                plain_cycles = plain.run(max_instructions=limit)
            except CpuFault as exc:
                plain_fault = str(exc)
            assert fused_fault == plain_fault, limit
            if fused_fault is None:
                assert fused_cycles == plain_cycles
            assert _state(fused) == _state(plain)

