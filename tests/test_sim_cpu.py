"""Unit tests for the cycle-level CPU."""

import gc
import types

import pytest

from repro.experiments.common import build_anytime
from repro.isa import assemble
from repro.sim import CPU, CpuFault, MemoTable, Multiplier, default_memory
from repro.sim import decode
from repro.workloads import ALL_BENCHMARKS, make_workload
from tests.test_native_record import VALID_BITS


def run_program(source, setup=None):
    cpu = CPU(assemble(source), default_memory())
    if setup:
        setup(cpu)
    cycles = cpu.run()
    return cpu, cycles


class TestAluSemantics:
    def test_mov_and_add(self):
        cpu, _ = run_program("MOV R0, #5\nADD R0, R0, #3\nHALT")
        assert cpu.regs[0] == 8

    def test_sub_and_flags(self):
        cpu, _ = run_program("MOV R0, #5\nSUB R0, R0, #5\nHALT")
        assert cpu.regs[0] == 0
        assert cpu.flags.z

    def test_negative_result_sets_n(self):
        cpu, _ = run_program("MOV R0, #5\nSUB R0, R0, #6\nHALT")
        assert cpu.regs[0] == 0xFFFFFFFF
        assert cpu.flags.n

    def test_logical_ops(self):
        cpu, _ = run_program(
            "MOV R0, #0xF0\nMOV R1, #0x3C\n"
            "AND R2, R0, R1\nORR R3, R0, R1\nEOR R4, R0, R1\nBIC R5, R0, R1\nHALT"
        )
        assert cpu.regs[2] == 0x30
        assert cpu.regs[3] == 0xFC
        assert cpu.regs[4] == 0xCC
        assert cpu.regs[5] == 0xC0

    def test_shifts(self):
        cpu, _ = run_program(
            "MOV R0, #1\nLSL R1, R0, #4\nLSR R2, R1, #2\nHALT"
        )
        assert cpu.regs[1] == 16
        assert cpu.regs[2] == 4

    def test_asr_preserves_sign(self):
        def setup(cpu):
            cpu.regs[0] = 0x80000000
        cpu, _ = run_program("ASR R1, R0, #4\nHALT", setup)
        assert cpu.regs[1] == 0xF8000000

    def test_mvn_and_neg(self):
        cpu, _ = run_program("MOV R0, #0\nMVN R1, R0\nMOV R2, #5\nNEG R3, R2\nHALT")
        assert cpu.regs[1] == 0xFFFFFFFF
        assert cpu.regs[3] == (-5) & 0xFFFFFFFF

    def test_extends(self):
        def setup(cpu):
            cpu.regs[0] = 0x0000FF80
        cpu, _ = run_program(
            "SXTB R1, R0\nUXTB R2, R0\nSXTH R3, R0\nUXTH R4, R0\nHALT", setup
        )
        assert cpu.regs[1] == 0xFFFFFF80
        assert cpu.regs[2] == 0x80
        assert cpu.regs[3] == 0xFFFFFF80
        assert cpu.regs[4] == 0xFF80

    def test_adc_uses_carry(self):
        cpu, _ = run_program(
            "MOV R0, #0\nMVN R0, R0\nADD R0, R0, #1\n"  # sets carry
            "MOV R1, #0\nADC R1, R1, #0\nHALT"
        )
        assert cpu.regs[1] == 1


class TestMemoryInstructions:
    def test_word_store_load(self):
        cpu, _ = run_program(
            "MOV R0, #0x100\nMOV R1, #1234\nSTR R1, [R0, #0]\nLDR R2, [R0, #0]\nHALT"
        )
        assert cpu.regs[2] == 1234

    def test_byte_store_load(self):
        cpu, _ = run_program(
            "MOV R0, #0x100\nMOV R1, #0x1FF\nSTRB R1, [R0, #0]\nLDRB R2, [R0, #0]\nHALT"
        )
        assert cpu.regs[2] == 0xFF

    def test_register_offset_addressing(self):
        cpu, _ = run_program(
            "MOV R0, #0x100\nMOV R1, #8\nMOV R2, #77\n"
            "STR R2, [R0, R1]\nLDR R3, [R0, R1]\nHALT"
        )
        assert cpu.regs[3] == 77
        assert cpu.memory.load_word(0x108) == 77

    def test_half_store_load(self):
        cpu, _ = run_program(
            "MOV R0, #0x100\nMOV R1, #0xBEEF\nSTRH R1, [R0, #2]\nLDRH R2, [R0, #2]\nHALT"
        )
        assert cpu.regs[2] == 0xBEEF


class TestControlFlow:
    def test_loop(self):
        cpu, _ = run_program(
            """
            MOV R0, #0
            LOOP:
                ADD R0, R0, #1
                CMP R0, #10
                BLT LOOP
            HALT
            """
        )
        assert cpu.regs[0] == 10

    def test_unsigned_conditions(self):
        # 0xFFFFFFFF unsigned > 1 -> BHI taken
        cpu, _ = run_program(
            """
            MOV R0, #0
            SUB R0, R0, #1
            CMP R0, #1
            BHI HIGH
            MOV R1, #0
            B DONE
            HIGH:
            MOV R1, #1
            DONE:
            HALT
            """
        )
        assert cpu.regs[1] == 1

    def test_signed_conditions(self):
        # -1 signed < 1 -> BLT taken
        cpu, _ = run_program(
            """
            MOV R0, #0
            SUB R0, R0, #1
            CMP R0, #1
            BLT LESS
            MOV R1, #0
            B DONE
            LESS:
            MOV R1, #1
            DONE:
            HALT
            """
        )
        assert cpu.regs[1] == 1

    def test_call_return(self):
        cpu, _ = run_program(
            """
            MOV R0, #1
            BL FUNC
            ADD R0, R0, #100
            HALT
            FUNC:
                ADD R0, R0, #10
                BX LR
            """
        )
        assert cpu.regs[0] == 111

    def test_halted_cpu_refuses_step(self):
        cpu, _ = run_program("HALT")
        with pytest.raises(CpuFault):
            cpu.step()

    def test_runaway_program_detected(self):
        cpu = CPU(assemble("LOOP: B LOOP"), default_memory())
        with pytest.raises(CpuFault):
            cpu.run(max_instructions=100)


class TestCycleAccounting:
    def test_basic_costs(self):
        _, cycles = run_program("MOV R0, #1\nHALT")
        assert cycles == 2  # MOV(1) + HALT(1)

    def test_load_costs_two(self):
        _, cycles = run_program("MOV R0, #0x100\nLDR R1, [R0, #0]\nHALT")
        assert cycles == 1 + 2 + 1

    def test_full_multiply_costs_sixteen(self):
        _, cycles = run_program("MOV R0, #3\nMOV R1, #4\nMUL R0, R1\nHALT")
        assert cycles == 1 + 1 + 16 + 1

    def test_asp_multiply_costs_width(self):
        _, cycles = run_program("MOV R0, #3\nMOV R1, #4\nMUL_ASP4 R0, R1, #0\nHALT")
        assert cycles == 1 + 1 + 4 + 1

    def test_taken_branch_costs_two(self):
        _, cycles = run_program("B SKIP\nSKIP: HALT")
        assert cycles == 2 + 1

    def test_untaken_branch_costs_one(self):
        _, cycles = run_program("MOV R0, #1\nCMP R0, #0\nBEQ NEVER\nNEVER: HALT")
        assert cycles == 1 + 1 + 1 + 1


class TestWnInstructions:
    def test_mul_asp_semantics(self):
        cpu, _ = run_program(
            "MOV R0, #100\nMOV R1, #3\nMUL_ASP8 R0, R1, #1\nHALT"
        )
        assert cpu.regs[0] == (100 * 3) << 8

    def test_mul_asp_accumulation_equals_full_product(self):
        # X = F * A via two 8-bit subword stages (paper Listing 2 pattern).
        cpu, _ = run_program(
            """
            MOV R0, #0        @ X accumulator
            MOV R1, #300      @ F
            MOV R2, #0x12     @ A[MSb]
            MOV R3, #0x34     @ A[LSb]
            MOV R4, R1
            MUL_ASP8 R4, R2, #1
            ADD R0, R0, R4
            MOV R4, R1
            MUL_ASP8 R4, R3, #0
            ADD R0, R0, R4
            HALT
            """
        )
        assert cpu.regs[0] == 300 * 0x1234

    def test_add_asv_lane_isolation(self):
        cpu, _ = run_program(
            """
            MOV R0, #0xFF
            MOV R1, #1
            ADD_ASV8 R0, R1
            HALT
            """
        )
        assert cpu.regs[0] == 0  # carry out of lane 0 is dropped

    def test_sub_asv(self):
        def setup(cpu):
            cpu.regs[0] = 0x05050505
            cpu.regs[1] = 0x01020304
        cpu, _ = run_program("SUB_ASV8 R0, R1\nHALT", setup)
        assert cpu.regs[0] == 0x04030201

    def test_skim_invokes_hook(self):
        cpu = CPU(assemble("SKM END\nNOP\nEND: HALT"), default_memory())
        seen = []
        cpu.skim_hook = seen.append
        cpu.run()
        assert seen == [2]

    def test_skim_without_hook_is_noop(self):
        cpu, _ = run_program("SKM END\nEND: HALT")

    def test_memoized_multiplier_integration(self):
        program = assemble(
            """
            MOV R0, #9
            MOV R1, #9
            MOV R2, R0
            MUL R2, R1
            MOV R3, R0
            MUL R3, R1
            HALT
            """
        )
        cpu = CPU(program, default_memory(), multiplier=Multiplier(memo_table=MemoTable()))
        cycles = cpu.run()
        assert cpu.regs[2] == cpu.regs[3] == 81
        # second multiply hits in the memo table: 1 cycle instead of 16
        assert cycles == 4 * 1 + 16 + 1 + 1


class TestHooks:
    def test_load_store_hooks(self):
        cpu = CPU(
            assemble("MOV R0, #0x100\nMOV R1, #7\nSTR R1, [R0, #0]\nLDR R2, [R0, #0]\nHALT"),
            default_memory(),
        )
        loads, stores = [], []
        cpu.load_hook = lambda addr, size: loads.append((addr, size))
        cpu.store_hook = lambda addr, size: stores.append((addr, size)) or 0
        cpu.run()
        assert loads == [(0x100, 4)]
        assert stores == [(0x100, 4)]

    def test_store_hook_extra_cycles_charged(self):
        cpu = CPU(
            assemble("MOV R0, #0x100\nSTR R0, [R0, #0]\nHALT"),
            default_memory(),
        )
        cpu.store_hook = lambda addr, size: 50
        cycles = cpu.run()
        assert cycles == 1 + (2 + 50) + 1


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        cpu = CPU(assemble("MOV R0, #1\nMOV R1, #2\nHALT"), default_memory())
        cpu.step()
        snap = cpu.snapshot()
        cpu.step()
        cpu.step()
        assert cpu.halted
        cpu.restore(snap)
        assert cpu.pc == 1
        assert not cpu.halted
        assert cpu.regs[0] == 1
        assert cpu.regs[1] == 0

    def test_reset(self):
        cpu = CPU(assemble("MOV R0, #1\nHALT"), default_memory())
        cpu.run()
        cpu.reset()
        assert cpu.pc == 0
        assert cpu.regs[0] == 0
        assert not cpu.halted


class TestRunCycles:
    def test_budget_respected(self):
        cpu = CPU(
            assemble("MOV R0, #1\nMOV R1, #2\nMOV R2, #3\nHALT"),
            default_memory(),
        )
        consumed = cpu.run_cycles(2)
        assert consumed == 2
        assert cpu.pc == 2
        assert not cpu.halted

    def test_instruction_not_started_if_it_cannot_finish(self):
        cpu = CPU(assemble("MOV R0, #3\nMUL R0, R0\nHALT"), default_memory())
        consumed = cpu.run_cycles(10)  # MOV fits, 16-cycle MUL does not
        assert consumed == 1
        assert cpu.pc == 1

    def test_run_to_halt_within_budget(self):
        cpu = CPU(assemble("MOV R0, #1\nHALT"), default_memory())
        consumed = cpu.run_cycles(1000)
        assert consumed == 2
        assert cpu.halted


class TestStats:
    def test_instruction_mix_recorded(self):
        cpu, _ = run_program(
            "MOV R0, #0x100\nLDR R1, [R0, #0]\nSTR R1, [R0, #4]\n"
            "MUL R1, R1\nMUL_ASP8 R1, R1, #0\nADD_ASV8 R1, R1\nHALT"
        )
        stats = cpu.stats
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.multiplies == 2
        assert stats.wn_instructions == 2
        assert stats.instructions == 7

    def test_wn_fraction(self):
        cpu, _ = run_program("MUL_ASP8 R0, R1, #0\nNOP\nNOP\nHALT")
        assert cpu.stats.wn_fraction == pytest.approx(0.25)

    def test_merge_and_reset(self):
        cpu1, _ = run_program("NOP\nHALT")
        cpu2, _ = run_program("NOP\nNOP\nHALT")
        cpu1.stats.merge(cpu2.stats)
        assert cpu1.stats.instructions == 5
        cpu1.stats.reset()
        assert cpu1.stats.instructions == 0


class TestHandlerBinding:
    """Handlers take their operands as keyword defaults, not closure
    cells, so a bound CPU keeps few garbage-collected objects alive."""

    def test_no_handler_definition_has_free_variables(self):
        # Every handler variant, used by a workload or not.
        for binder in (decode.bind_handlers, decode._bind_bcc, decode._bind_alu):
            assert binder.__code__.co_cellvars == (), binder.__name__
            nested = [
                const for const in binder.__code__.co_consts
                if isinstance(const, types.CodeType)
            ]
            assert nested, binder.__name__
            for code in nested:
                assert code.co_freevars == (), (code.co_name, code.co_firstlineno)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_bound_handlers_hold_no_closure(self, name):
        workload = make_workload(name, "tiny")
        configs = [("precise", None)] + [
            (workload.technique, bits)
            for bits in VALID_BITS[workload.technique]
        ]
        for mode, bits in configs:
            for accelerated in (False, True):
                kernel = build_anytime(
                    workload, mode, bits,
                    memoization=accelerated, zero_skipping=accelerated,
                )
                cpu = kernel.make_cpu(workload.inputs)
                assert len(cpu._handlers) == len(kernel.compiled.program)
                for handler in cpu._handlers:
                    assert handler.__closure__ is None, (mode, bits, handler)

    def test_binding_a_cpu_adds_few_tracked_objects(self):
        workload = make_workload("MatMul", "default")
        kernel = build_anytime(workload, "swp", 4)
        program = kernel.compiled.program
        first = kernel.make_cpu(workload.inputs)  # decodes the program
        gc.disable()
        try:
            before = len(gc.get_objects())
            second = CPU(program, first.memory)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # Both handler lists are alive: nothing was freed in between.
        assert first._handlers is not second._handlers
        assert added <= 3 * len(program), added / len(program)
