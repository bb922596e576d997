"""Differential tests: fast pre-decoded CPU vs. the golden-model ReferenceCPU.

The contract (see docs/ARCHITECTURE.md, "Performance notes"): the fast
interpreter must be *indistinguishable* from the reference — same
per-step cycles and peek costs, same architectural state at every step
boundary, same final statistics, memory and outputs — on random
programs, on every shipped workload, and under intermittent execution
with every runtime.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import AnytimeConfig, AnytimeKernel
from repro.isa import assemble
from repro.isa.instructions import (
    ASP_WIDTHS,
    ASV_WIDTHS,
    BRANCH_CONDS,
    Instruction,
)
from repro.isa.program import Program
from repro.power import Capacitor, EnergyModel, wifi_trace
from repro.sim import CPU, ReferenceCPU, default_memory
from repro.sim.cpu import CpuFault
from repro.workloads import BENCHMARKS, make_workload

SCRATCH = 0x100  # NVM scratch the random programs read/write through R7
SCRATCH_WORDS = 64

# Immediates chosen to hit the interpreter's edge cases: the unmasked
# register-write quirk of AND/ORR/EOR (negative immediates), shift
# saturation (>= 32), and sign/carry boundaries.
INTERESTING_IMMS = [
    -0x80000000, -0x8000, -256, -100, -2, -1, 0, 1, 2, 7, 31, 32, 33,
    0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0x12345, 0x7FFFFFFF, 0x80000000,
    0xFFFFFFFF,
]

DATA_REGS = list(range(7))  # R7 stays the scratch base pointer


def _random_body(rng, size):
    """A list of (op, fields) specs; branch targets are forward-only."""
    body = []
    for idx in range(size):
        kind = rng.randrange(10)
        if kind == 0:  # unary ALU
            op = rng.choice(["MOV", "MVN", "NEG", "SXTB", "SXTH", "UXTB", "UXTH"])
            if rng.random() < 0.5:
                body.append((op, dict(rd=rng.choice(DATA_REGS), rm=rng.randrange(8))))
            else:
                body.append((op, dict(rd=rng.choice(DATA_REGS),
                                      imm=rng.choice(INTERESTING_IMMS))))
        elif kind in (1, 2, 3):  # two-operand ALU
            op = rng.choice(["ADD", "ADC", "SUB", "SBC", "RSB", "AND", "ORR",
                             "EOR", "BIC", "LSL", "LSR", "ASR"])
            fields = dict(rd=rng.choice(DATA_REGS), rn=rng.randrange(8))
            if rng.random() < 0.5:
                fields["rm"] = rng.randrange(8)
            else:
                fields["imm"] = rng.choice(INTERESTING_IMMS)
            body.append((op, fields))
        elif kind == 4:  # compares
            op = rng.choice(["CMP", "CMN", "TST"])
            fields = dict(rn=rng.randrange(8))
            if rng.random() < 0.5:
                fields["rm"] = rng.randrange(8)
            else:
                fields["imm"] = rng.choice(INTERESTING_IMMS)
            body.append((op, fields))
        elif kind == 5:  # loads (immediate offset into the scratch window)
            op = rng.choice(["LDR", "LDRB", "LDRH"])
            body.append((op, dict(rd=rng.choice(DATA_REGS), rn=7,
                                  imm=rng.randrange(SCRATCH_WORDS * 4 - 4))))
        elif kind == 6:  # stores
            op = rng.choice(["STR", "STRB", "STRH"])
            body.append((op, dict(rd=rng.choice(DATA_REGS), rn=7,
                                  imm=rng.randrange(SCRATCH_WORDS * 4 - 4))))
        elif kind == 7:  # multiplies, incl. the WN anytime variants
            r = rng.random()
            if r < 0.4:
                body.append(("MUL", dict(rd=rng.choice(DATA_REGS),
                                         rm=rng.randrange(8))))
            else:
                width = rng.choice(ASP_WIDTHS)
                op = (f"MUL_ASPS{width}" if r < 0.7 else f"MUL_ASP{width}")
                body.append((op, dict(rd=rng.choice(DATA_REGS),
                                      rm=rng.randrange(8),
                                      imm=rng.randrange(4))))
        elif kind == 8:  # vector add/sub
            width = rng.choice(ASV_WIDTHS)
            op = rng.choice(["ADD", "SUB"]) + f"_ASV{width}"
            body.append((op, dict(rd=rng.choice(DATA_REGS), rm=rng.randrange(8))))
        else:  # control flow (forward targets only, so programs halt)
            r = rng.random()
            if r < 0.5:
                op = rng.choice(sorted(BRANCH_CONDS))
                body.append((op, dict(target="fwd")))
            elif r < 0.7:
                body.append(("B", dict(target="fwd")))
            elif r < 0.8:
                body.append(("BL", dict(target="fwd")))
            elif r < 0.9:
                body.append(("SKM", dict(target="fwd")))
            else:
                body.append(("NOP", {}))
    return body


def _materialize(body, rng):
    """Specs -> Program: preamble, resolved forward targets, HALT."""
    instrs = [Instruction("MOV", rd=7, imm=SCRATCH)]
    halt_index = len(body) + 1
    for offset, (op, fields) in enumerate(body):
        index = offset + 1
        if fields.get("target") == "fwd":
            fields = dict(fields, target=rng.randrange(index + 1, halt_index + 1))
        instrs.append(Instruction(op, **fields))
    instrs.append(Instruction("HALT"))
    return Program(instrs, name="random")


def _fresh_pair(program, data_words):
    cpus = []
    for cls in (CPU, ReferenceCPU):
        memory = default_memory()
        memory.write_words(SCRATCH, data_words)
        cpus.append(cls(program, memory))
    return cpus


def _state(cpu):
    return (cpu.pc, cpu.halted, list(cpu.regs.regs), cpu.flags.snapshot())


class TestRandomProgramLockstep:
    """Step-by-step equivalence on randomly generated programs."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9), st.integers(5, 60))
    def test_lockstep(self, seed, size):
        rng = random.Random(seed)
        program = _materialize(_random_body(rng, size), rng)
        data = [rng.randrange(0, 2**32) for _ in range(SCRATCH_WORDS)]
        fast, ref = _fresh_pair(program, data)

        for _ in range(len(program) + 5):
            assert fast.halted == ref.halted
            if fast.halted:
                break
            assert fast.peek_cost() == ref.peek_cost(), f"peek @ pc={fast.pc}"
            fast_cycles = fast.step()
            ref_cycles = ref.step()
            assert fast_cycles == ref_cycles, f"cycles @ pc={ref.pc}"
            assert _state(fast) == _state(ref)
        else:
            raise AssertionError("random program did not halt (forward branches)")

        assert fast.stats.as_dict() == ref.stats.as_dict()
        assert dict(fast.stats.op_counts) == dict(ref.stats.op_counts)
        assert fast.memory.regions[0].data == ref.memory.regions[0].data
        # Functional-unit bookkeeping matches too.
        assert fast.adder.add_count == ref.adder.add_count
        assert fast.multiplier.mul_count == ref.multiplier.mul_count
        assert fast.multiplier.total_mul_cycles == ref.multiplier.total_mul_cycles

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**9), st.integers(5, 60), st.integers(1, 40))
    def test_run_cycles_windows_match(self, seed, size, window):
        """Driving both CPUs in cycle windows (as the quality-curve and
        intermittent executor do) consumes identical cycles per window."""
        rng = random.Random(seed)
        program = _materialize(_random_body(rng, size), rng)
        data = [rng.randrange(0, 2**32) for _ in range(SCRATCH_WORDS)]
        fast, ref = _fresh_pair(program, data)

        for _ in range(1000):
            if fast.halted or ref.halted:
                break
            assert fast.run_cycles(window) == ref.run_cycles(window)
            assert _state(fast) == _state(ref)
        assert fast.halted == ref.halted
        assert fast.stats.as_dict() == ref.stats.as_dict()


BXPROGRAM = """
    MOV R0, #5
    BL DOUBLE
    ADD R1, R0, #1
    HALT
DOUBLE:
    ADD R0, R0, R0
    BX LR
"""


class TestCallReturn:
    def test_bl_bx_roundtrip_matches(self):
        program = assemble(BXPROGRAM)
        fast, ref = _fresh_pair(program, [0] * SCRATCH_WORDS)
        assert fast.run() == ref.run()
        assert _state(fast) == _state(ref)
        assert fast.stats.as_dict() == ref.stats.as_dict()
        assert fast.regs[1] == 11


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


def _run_limited(cpu, limit):
    """``(fault message or None, cycles or None)`` of ``cpu.run(limit)``."""
    try:
        return None, cpu.run(max_instructions=limit)
    except CpuFault as exc:
        return str(exc), None


class TestInstructionLimit:
    def test_limit_boundary_matches_reference(self):
        """``run`` executes up to ``max_instructions + 1`` instructions,
        and the (max+1)-th trips the limit even when it halts. The
        program retires 73 instructions, HALT last: limits before and
        inside the loop, at HALT (72 faults, 73 does not) and past it."""
        program = assemble(STRAIGHT_THEN_LOOP)
        for limit in list(range(0, 12)) + [72, 73, 80, 81, 82, 83, 200]:
            fast, ref = _fresh_pair(program, [0] * SCRATCH_WORDS)
            outcome = _run_limited(fast, limit)
            assert outcome == _run_limited(ref, limit), limit
            assert _state(fast) == _state(ref), limit
            assert (outcome[0] is None) == (limit >= 73), limit


def _workload_configs():
    for name in BENCHMARKS:
        yield name, "precise", None, False
        workload = make_workload(name, "tiny")
        yield name, workload.technique, 8, False
    # 4-bit and accelerated-multiplier builds on the two swp flagships.
    yield "MatMul", "swp", 4, False
    yield "Var", "swp", 4, False
    yield "MatMul", "swp", 8, True
    yield "Var", "swp", 8, True


class TestWorkloadEquivalence:
    """Continuous-power equivalence on every shipped benchmark."""

    def test_all_workloads_all_modes(self):
        for name, mode, bits, accelerated in _workload_configs():
            workload = make_workload(name, "tiny")
            config = AnytimeConfig(
                mode=mode,
                bits=bits,
                memoization=accelerated,
                zero_skipping=accelerated,
            )
            kernel = AnytimeKernel(workload.kernel, config)
            label = (name, mode, bits, accelerated)

            fast = kernel.make_cpu(workload.inputs)
            ref = kernel.make_cpu(workload.inputs, cpu_cls=ReferenceCPU)
            assert fast.predecode and not ref.predecode
            fast_cycles = fast.run()
            ref_cycles = ref.run()
            assert fast_cycles == ref_cycles, label
            assert fast.stats.as_dict() == ref.stats.as_dict(), label
            assert dict(fast.stats.op_counts) == dict(ref.stats.op_counts), label
            assert kernel.read_outputs(fast) == kernel.read_outputs(ref), label
            assert list(fast.regs.regs) == list(ref.regs.regs), label
            assert fast.memory.regions[0].data == ref.memory.regions[0].data, label


class TestIntermittentEquivalence:
    """The executor + runtimes see identical behavior from both CPUs."""

    def _run(self, cpu_cls, runtime, seed):
        workload = make_workload("MatMul", "tiny")
        kernel = AnytimeKernel(
            workload.kernel, AnytimeConfig(mode=workload.technique, bits=8)
        )
        return kernel.run_intermittent(
            workload.inputs,
            wifi_trace(duration_ms=3000, seed=seed),
            runtime=runtime,
            capacitor=Capacitor(capacitance_f=0.1e-6, v_initial=3.0, v_max=3.3),
            energy_model=EnergyModel(),
            max_wall_ms=500_000,
            watchdog_cycles=500 if runtime == "clank" else None,
            cpu_cls=cpu_cls,
        )

    def test_all_runtimes_match(self):
        for runtime in ("clank", "nvp", "hibernus"):
            for seed in (0, 3):
                fast = self._run(CPU, runtime, seed)
                ref = self._run(ReferenceCPU, runtime, seed)
                label = (runtime, seed)
                assert fast.outputs == ref.outputs, label
                assert fast.result.completed == ref.result.completed, label
                assert fast.result.skim_taken == ref.result.skim_taken, label
                assert fast.result.wall_ms == ref.result.wall_ms, label
                assert fast.result.on_ms == ref.result.on_ms, label
                assert fast.result.active_cycles == ref.result.active_cycles, label
                assert fast.result.outages == ref.result.outages, label
