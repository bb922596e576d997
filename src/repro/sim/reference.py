"""The reference interpreter — the golden model for the fast CPU.

This is the original string-dispatch implementation of the WN core,
kept verbatim as the executable specification of the ISA. It decodes
every instruction on every retire and records statistics eagerly, so it
is several times slower than :class:`repro.sim.cpu.CPU`, but its
``step`` reads exactly like the ISA description — one branch per
mnemonic family.

``tests/test_fast_interpreter.py`` holds the differential contract:
on random programs and on every shipped workload (continuously powered
and under intermittent execution with all three runtimes), the fast
interpreter must match this model cycle-for-cycle — same cycles, same
final registers/flags/memory, same :class:`ExecutionStats`. Any change
to the ISA semantics must be made here first; the fast interpreter then
has to reproduce it bit-exactly.
"""

from __future__ import annotations

from ..isa.instructions import (
    BRANCH_CONDS,
    Instruction,
    MUL_CYCLES,
    asp_width,
    asv_width,
    cycle_cost,
)
from ..isa.registers import MASK32, to_signed
from .cpu import CPU, CpuFault


class ReferenceCPU(CPU):
    """Golden-model interpreter: re-decodes each instruction on retire."""

    predecode = False

    # -- execution --------------------------------------------------------------

    def peek_cost(self) -> int:
        """Worst-case cycle cost of the next instruction."""
        if self.halted:
            return 0
        instr = self._instructions[self.pc]
        if instr.op == "MUL":
            return MUL_CYCLES
        return cycle_cost(instr, taken=True)

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed."""
        if self.halted:
            raise CpuFault("CPU is halted")
        if not 0 <= self.pc < len(self._instructions):
            raise CpuFault(f"PC out of range: {self.pc}")
        instr = self._instructions[self.pc]
        op = instr.op
        regs = self.regs.regs

        # -- memory ops (most frequent) --------------------------------------
        if op in ("LDR", "LDRB", "LDRH", "STR", "STRB", "STRH"):
            addr = regs[instr.rn] + (regs[instr.rm] if instr.rm is not None else instr.imm)
            addr &= MASK32
            size = 4 if op.endswith("R") else (1 if op.endswith("B") else 2)
            if op[0] == "L":
                if self.load_hook is not None:
                    self.load_hook(addr, size)
                if size == 4:
                    regs[instr.rd] = self.memory.load_word(addr)
                elif size == 1:
                    regs[instr.rd] = self.memory.load_byte(addr)
                else:
                    regs[instr.rd] = self.memory.load_half(addr)
                cycles = 2
            else:
                cycles = 2
                if self.store_hook is not None:
                    cycles += self.store_hook(addr, size)
                value = regs[instr.rd]
                if size == 4:
                    self.memory.store_word(addr, value)
                elif size == 1:
                    self.memory.store_byte(addr, value)
                else:
                    self.memory.store_half(addr, value)
            self.pc += 1
            self.stats.record(op, cycles, is_wn=False)
            return cycles

        # -- branches ----------------------------------------------------------
        if op in BRANCH_CONDS:
            taken = self.flags.condition(BRANCH_CONDS[op])
            if taken:
                self.pc = instr.target
                cycles = 2
            else:
                self.pc += 1
                cycles = 1
            self.stats.record(op, cycles, is_wn=False, taken=taken)
            return cycles
        if op == "B":
            self.pc = instr.target
            self.stats.record(op, 2, is_wn=False, taken=True)
            return 2
        if op == "BL":
            regs[14] = self.pc + 1
            self.pc = instr.target
            self.stats.record(op, 3, is_wn=False, taken=True)
            return 3
        if op == "BX":
            self.pc = regs[instr.rm]
            self.stats.record(op, 2, is_wn=False, taken=True)
            return 2

        # -- multiplies ---------------------------------------------------------
        if op == "MUL":
            result, cycles = self.multiplier.mul(regs[instr.rd], regs[instr.rm])
            regs[instr.rd] = result
            self.flags.set_nz(result)
            self.pc += 1
            self.stats.record(op, cycles, is_wn=False)
            return cycles
        if op.startswith("MUL_ASP"):
            width = asp_width(op)
            if op.startswith("MUL_ASPS"):
                result, cycles = self.multiplier.mul_asp_signed(
                    regs[instr.rd], regs[instr.rm], width, instr.imm
                )
            else:
                result, cycles = self.multiplier.mul_asp(
                    regs[instr.rd], regs[instr.rm], width, instr.imm
                )
            regs[instr.rd] = result
            self.flags.set_nz(result)
            self.pc += 1
            self.stats.record(op, cycles, is_wn=True)
            return cycles

        # -- vector ops ------------------------------------------------------------
        if "_ASV" in op:
            width = asv_width(op)
            if op.startswith("ADD"):
                regs[instr.rd] = self.adder.add_vector(regs[instr.rd], regs[instr.rm], width)
            else:
                regs[instr.rd] = self.adder.sub_vector(regs[instr.rd], regs[instr.rm], width)
            self.pc += 1
            self.stats.record(op, 1, is_wn=True)
            return 1

        # -- skim point ----------------------------------------------------------------
        if op == "SKM":
            if self.skim_hook is not None:
                self.skim_hook(instr.target)
            self.pc += 1
            self.stats.record(op, 1, is_wn=True)
            return 1

        # -- control -----------------------------------------------------------------
        if op == "HALT":
            self.halted = True
            self.stats.record(op, 1, is_wn=False)
            return 1
        if op == "NOP":
            self.pc += 1
            self.stats.record(op, 1, is_wn=False)
            return 1

        return self._step_alu(instr)

    def _step_alu(self, instr: Instruction) -> int:
        """Single-cycle ALU instructions."""
        op = instr.op
        regs = self.regs.regs
        flags = self.flags
        src = regs[instr.rm] if instr.rm is not None else instr.imm

        if op == "MOV":
            result = src & MASK32
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "MVN":
            result = (~src) & MASK32
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op in ("ADD", "ADC"):
            carry_in = flags.c if op == "ADC" else 0
            result, flags.c, flags.v = self.adder.add32(regs[instr.rn], src, carry_in)
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op in ("SUB", "SBC"):
            carry_in = flags.c if op == "SBC" else 1
            result, flags.c, flags.v = self.adder.sub32(regs[instr.rn], src, carry_in)
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "RSB":
            result, flags.c, flags.v = self.adder.sub32(src, regs[instr.rn], 1)
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "NEG":
            result, flags.c, flags.v = self.adder.sub32(0, src, 1)
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "CMP":
            result, flags.c, flags.v = self.adder.sub32(regs[instr.rn], src, 1)
            flags.set_nz(result)
        elif op == "CMN":
            result, flags.c, flags.v = self.adder.add32(regs[instr.rn], src, 0)
            flags.set_nz(result)
        elif op == "TST":
            flags.set_nz(regs[instr.rn] & src)
        elif op == "AND":
            result = regs[instr.rn] & src
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "ORR":
            result = regs[instr.rn] | src
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "EOR":
            result = regs[instr.rn] ^ src
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "BIC":
            result = regs[instr.rn] & ~src & MASK32
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "LSL":
            shift = min(src & 0xFF, 32)
            result = (regs[instr.rn] << shift) & MASK32
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "LSR":
            shift = min(src & 0xFF, 32)
            result = (regs[instr.rn] & MASK32) >> shift
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "ASR":
            shift = min(src & 0xFF, 32)
            result = (to_signed(regs[instr.rn]) >> shift) & MASK32
            regs[instr.rd] = result
            flags.set_nz(result)
        elif op == "SXTB":
            regs[instr.rd] = to_signed(src, 8) & MASK32
        elif op == "SXTH":
            regs[instr.rd] = to_signed(src, 16) & MASK32
        elif op == "UXTB":
            regs[instr.rd] = src & 0xFF
        elif op == "UXTH":
            regs[instr.rd] = src & 0xFFFF
        else:  # pragma: no cover - all ops are enumerated above
            raise CpuFault(f"unimplemented opcode {op!r}")

        self.pc += 1
        self.stats.record(op, 1, is_wn=False)
        return 1

    # -- run loops -----------------------------------------------------------------

    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until HALT; returns total cycles. Raises if the limit trips."""
        total = 0
        executed = 0
        while not self.halted:
            total += self.step()
            executed += 1
            if executed > max_instructions:
                raise CpuFault("instruction limit exceeded (runaway program?)")
        return total

    def run_cycles(self, budget: int) -> int:
        """Run until the cycle budget is exhausted or the program halts."""
        consumed = 0
        while not self.halted:
            cost = self.peek_cost()
            if consumed + cost > budget:
                break
            consumed += self.step()
        return consumed
