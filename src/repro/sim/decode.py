"""Decode-once support for the fast interpreter.

`repro.sim.cpu.CPU` used to re-decode every instruction on every retire:
``step()`` walked an ``op in (...)`` / ``op.startswith(...)`` string
chain, ``peek_cost()`` re-derived the worst-case cost, and every retire
paid a ``stats.record`` call. This module eliminates all three:

* :func:`decode_program` runs once per :class:`~repro.isa.program.Program`
  (cached on the program) and produces a :class:`DecodedProgram` — the
  per-instruction worst-case cycle costs used by ``peek_cost`` /
  ``run_cycles`` and the :class:`RetireMeta` records that let
  :meth:`~repro.sim.stats.ExecutionStats.absorb_counts` rebuild exact
  statistics from batched per-instruction retire counters.

* :func:`bind_handlers` runs once per CPU and turns each instruction
  into a specialized closure with operands, branch targets, subword
  widths and memory access sizes pre-extracted, and the register list /
  flags / functional units bound. Executing an instruction is one
  indirect call — no string comparison, no operand dispatch.

The handlers preserve the reference interpreter's semantics exactly
(including its quirks, e.g. unmasked register writes for ``ORR``/``EOR``
with a negative immediate); ``tests/test_fast_interpreter.py`` proves
cycle-, stats-, flag- and memory-exact equivalence against
:class:`repro.sim.reference.ReferenceCPU` on random programs and on
every shipped workload. Hooks (``load_hook``/``store_hook``/
``skim_hook``) are read from the CPU at execution time, so runtimes may
install or swap them after construction, as before.
"""

from __future__ import annotations

import operator
from typing import Callable, List

from ..isa.instructions import (
    ASP_OPS,
    ASPS_OPS,
    BRANCH_CONDS,
    Instruction,
    LOAD_OPS,
    STORE_OPS,
    asp_width,
    asv_width,
    mem_width,
    worst_case_cost,
)
from ..isa.program import Program
from .memory import _U16, _U32

MASK32 = 0xFFFFFFFF

class RetireMeta:
    """Static per-instruction classification for batched statistics.

    ``cost`` is the fixed cycle cost folded in per retire; it is 0 for
    variable-cost instructions (``MUL``/``MUL_ASP*``), whose handlers
    report their actual cycles through the CPU's ``_extra_cycles``
    accumulator, and 2 for stores, whose store-hook overhead (if any)
    also goes through ``_extra_cycles``. Conditional branches are costed
    from their retire/taken counter pair instead.
    """

    __slots__ = (
        "op",
        "cost",
        "is_load",
        "is_store",
        "is_branch",
        "is_cond_branch",
        "is_mul",
        "is_wn",
    )

    def __init__(self, instr: Instruction):
        op = instr.op
        self.op = op
        self.is_load = op in LOAD_OPS
        self.is_store = op in STORE_OPS
        self.is_cond_branch = op in BRANCH_CONDS
        # Mirrors ExecutionStats.record: branches are ops starting with
        # "B" except BIC — i.e. B/BL/BX plus the conditional mnemonics.
        self.is_branch = op.startswith("B") and op != "BIC"
        self.is_mul = op == "MUL" or op.startswith("MUL_ASP")
        self.is_wn = instr.is_wn
        if self.is_mul:
            self.cost = 0  # variable: reported via _extra_cycles
        elif self.is_cond_branch:
            self.cost = 0  # costed from the taken counter
        else:
            self.cost = worst_case_cost(instr)


class DecodedProgram:
    """Per-program decode artifacts shared by every CPU instance."""

    __slots__ = ("instructions", "peek_costs", "metas")

    def __init__(self, program: Program):
        self.instructions = program.instructions
        self.peek_costs: List[int] = [
            worst_case_cost(i) for i in program.instructions
        ]
        self.metas: List[RetireMeta] = [
            RetireMeta(i) for i in program.instructions
        ]


def decode_program(program: Program) -> DecodedProgram:
    """Decoded view of ``program`` (computed once, cached on it)."""
    cache = program._decoded_cache
    if cache is None or cache.instructions is not program.instructions:
        cache = DecodedProgram(program)
        program._decoded_cache = cache
    return cache


def bind_handlers(cpu) -> List[Callable[[], int]]:
    """Build the dispatch table: one execution closure per instruction.

    Each closure returns the cycles consumed, advances ``cpu.pc``,
    bumps its retire counter and (for variable-cost instructions)
    accumulates cycles into ``cpu._extra_cycles``. Registers, flags,
    memory accessors and functional units are bound once; hooks are read
    from ``cpu`` at execution time so runtimes can (re)install them at
    any point.
    """
    regs = cpu.regs.regs
    flags = cpu.flags
    memory = cpu.memory
    multiplier = cpu.multiplier
    adder = cpu.adder
    counts = cpu._retire_counts
    taken = cpu._taken_counts

    load_word = memory.load_word
    load_half = memory.load_half
    load_byte = memory.load_byte
    store_word = memory.store_word
    store_half = memory.store_half
    store_byte = memory.store_byte
    add_vector = adder.add_vector
    sub_vector = adder.sub_vector

    # Fast path for the first region (NVM in the default map, where the
    # compiler places all arrays): when it is plain RAM, loads/stores
    # whose address falls inside it bypass Memory's region walk and hit
    # the bytearray directly. Anything else — other regions, device
    # regions, unmapped addresses — falls back to the Memory methods.
    # region0.data is re-read on every access so a handler never caches
    # a buffer Memory might replace (clear() / restore_volatile() now
    # mutate in place, but external code may still assign region.data).
    region0 = memory.regions[0] if memory.regions else None
    if region0 is not None and region0.device is None:
        r0_base = region0.base
        r0_end = region0.base + region0.size
    else:
        region0 = None
        r0_base = r0_end = 0
    u32_unpack = _U32.unpack_from
    u16_unpack = _U16.unpack_from
    u32_pack = _U32.pack_into
    u16_pack = _U16.pack_into

    handlers: List[Callable[[], int]] = []
    for i, instr in enumerate(cpu.program.instructions):
        op = instr.op
        rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm
        target = instr.target
        nxt = i + 1

        # -- memory ------------------------------------------------------
        if op in LOAD_OPS or op in STORE_OPS:
            size = mem_width(op)
            reg_offset = rm is not None
            if op in LOAD_OPS:
                load = {4: load_word, 2: load_half, 1: load_byte}[size]
                unpack = {4: u32_unpack, 2: u16_unpack, 1: None}[size]

                def h(rd=rd, rn=rn, rm=rm, imm=imm, size=size, load=load,
                      unpack=unpack, reg_offset=reg_offset, nxt=nxt, i=i,
                      region0=region0, r0_base=r0_base, r0_last=r0_end - size):
                    if region0 is None:

                        def ldr():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            hook = cpu.load_hook
                            if hook is not None:
                                hook(addr, size)
                            regs[rd] = load(addr)
                            cpu.pc = nxt
                            counts[i] += 1
                            return 2
                    elif size == 1:

                        def ldr():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            hook = cpu.load_hook
                            if hook is not None:
                                hook(addr, 1)
                            if r0_base <= addr <= r0_last:
                                regs[rd] = region0.data[addr - r0_base]
                            else:
                                regs[rd] = load(addr)
                            cpu.pc = nxt
                            counts[i] += 1
                            return 2
                    else:

                        def ldr():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            hook = cpu.load_hook
                            if hook is not None:
                                hook(addr, size)
                            if r0_base <= addr <= r0_last:
                                regs[rd] = unpack(region0.data, addr - r0_base)[0]
                            else:
                                regs[rd] = load(addr)
                            cpu.pc = nxt
                            counts[i] += 1
                            return 2
                    return ldr
                handlers.append(h())
            else:
                store = {4: store_word, 2: store_half, 1: store_byte}[size]
                pack = {4: u32_pack, 2: u16_pack, 1: None}[size]
                vmask = {4: MASK32, 2: 0xFFFF, 1: 0xFF}[size]

                def h(rd=rd, rn=rn, rm=rm, imm=imm, size=size, store=store,
                      pack=pack, vmask=vmask, reg_offset=reg_offset, nxt=nxt,
                      i=i, region0=region0, r0_base=r0_base,
                      r0_last=r0_end - size):
                    if region0 is None:

                        def stri():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            cycles = 2
                            hook = cpu.store_hook
                            if hook is not None:
                                extra = hook(addr, size)
                                if extra:
                                    cycles += extra
                                    cpu._extra_cycles += extra
                            store(addr, regs[rd])
                            cpu.pc = nxt
                            counts[i] += 1
                            return cycles
                    elif size == 1:

                        def stri():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            cycles = 2
                            hook = cpu.store_hook
                            if hook is not None:
                                extra = hook(addr, 1)
                                if extra:
                                    cycles += extra
                                    cpu._extra_cycles += extra
                            if r0_base <= addr <= r0_last:
                                region0.data[addr - r0_base] = regs[rd] & 0xFF
                            else:
                                store(addr, regs[rd])
                            cpu.pc = nxt
                            counts[i] += 1
                            return cycles
                    else:

                        def stri():
                            if reg_offset:
                                addr = (regs[rn] + regs[rm]) & MASK32
                            else:
                                addr = (regs[rn] + imm) & MASK32
                            cycles = 2
                            hook = cpu.store_hook
                            if hook is not None:
                                extra = hook(addr, size)
                                if extra:
                                    cycles += extra
                                    cpu._extra_cycles += extra
                            if r0_base <= addr <= r0_last:
                                pack(region0.data, addr - r0_base, regs[rd] & vmask)
                            else:
                                store(addr, regs[rd])
                            cpu.pc = nxt
                            counts[i] += 1
                            return cycles
                    return stri
                handlers.append(h())

        # -- branches ----------------------------------------------------
        elif op in BRANCH_CONDS:
            handlers.append(
                _bind_bcc(cpu, flags, BRANCH_CONDS[op], target, nxt, counts, taken, i)
            )
        elif op == "B":
            def h(target=target, i=i):
                def b():
                    cpu.pc = target
                    counts[i] += 1
                    return 2
                return b
            handlers.append(h())
        elif op == "BL":
            def h(target=target, nxt=nxt, i=i):
                def bl():
                    regs[14] = nxt
                    cpu.pc = target
                    counts[i] += 1
                    return 3
                return bl
            handlers.append(h())
        elif op == "BX":
            n_instr = len(cpu.program.instructions)

            def h(rm=rm, i=i, n_instr=n_instr):
                def bx():
                    npc = regs[rm]
                    cpu.pc = npc
                    counts[i] += 1
                    if 0 <= npc <= n_instr:
                        return 2
                    # The reference faults when the *next* instruction
                    # dispatches; fault here instead so the fast run
                    # loops' list indexing can never wrap a negative pc
                    # onto a valid handler. State (pc, stats) already
                    # reflects the retired BX, as in the reference.
                    from .cpu import CpuFault
                    raise CpuFault(f"PC out of range: {npc}")
                return bx
            handlers.append(h())

        # -- multiplies --------------------------------------------------
        # With neither memoization nor zero skipping the cost is a
        # bind-time constant and the product is one expression, so the
        # Multiplier call (two frames + a tuple per retire) is inlined;
        # its mul_count / total_mul_cycles bookkeeping is kept. The
        # accelerated configs go through the real Multiplier — the memo
        # table is stateful and its hit/miss counters feed Figure 13.
        elif op == "MUL":
            plain_mul = multiplier.memo is None and not multiplier.zero_skipping
            if plain_mul:
                fw = multiplier.full_width

                def h(rd=rd, rm=rm, fw=fw, nxt=nxt, i=i):
                    def mull():
                        result = ((regs[rd] & MASK32) * (regs[rm] & MASK32)) & MASK32
                        multiplier.mul_count += 1
                        multiplier.total_mul_cycles += fw
                        regs[rd] = result
                        flags.n = result >= 0x80000000
                        flags.z = result == 0
                        cpu.pc = nxt
                        counts[i] += 1
                        cpu._extra_cycles += fw
                        return fw
                    return mull
                handlers.append(h())
            else:
                mul = multiplier.mul

                def h(rd=rd, rm=rm, mul=mul, nxt=nxt, i=i):
                    def mull():
                        result, cycles = mul(regs[rd], regs[rm])
                        regs[rd] = result
                        flags.n = result >= 0x80000000
                        flags.z = result == 0
                        cpu.pc = nxt
                        counts[i] += 1
                        cpu._extra_cycles += cycles
                        return cycles
                    return mull
                handlers.append(h())
        elif op in ASP_OPS or op in ASPS_OPS:
            width = asp_width(op)
            plain_mul = multiplier.memo is None and not multiplier.zero_skipping
            if plain_mul:
                shift = width * imm
                signed = op in ASPS_OPS
                sub_mask = MASK32 if signed else (1 << width) - 1

                def h(rd=rd, rm=rm, width=width, shift=shift,
                      sub_mask=sub_mask, nxt=nxt, i=i):
                    def asp():
                        result = (
                            ((regs[rd] & MASK32) * (regs[rm] & sub_mask)) << shift
                        ) & MASK32
                        multiplier.mul_count += 1
                        multiplier.total_mul_cycles += width
                        regs[rd] = result
                        flags.n = result >= 0x80000000
                        flags.z = result == 0
                        cpu.pc = nxt
                        counts[i] += 1
                        cpu._extra_cycles += width
                        return width
                    return asp
                handlers.append(h())
            else:
                mul_asp = (
                    multiplier.mul_asp_signed if op in ASPS_OPS else multiplier.mul_asp
                )

                def h(rd=rd, rm=rm, imm=imm, width=width, mul_asp=mul_asp,
                      nxt=nxt, i=i):
                    def asp():
                        result, cycles = mul_asp(regs[rd], regs[rm], width, imm)
                        regs[rd] = result
                        flags.n = result >= 0x80000000
                        flags.z = result == 0
                        cpu.pc = nxt
                        counts[i] += 1
                        cpu._extra_cycles += cycles
                        return cycles
                    return asp
                handlers.append(h())

        # -- vector ops --------------------------------------------------
        elif "_ASV" in op:
            width = asv_width(op)
            vec = add_vector if op.startswith("ADD") else sub_vector

            def h(rd=rd, rm=rm, width=width, vec=vec, nxt=nxt, i=i):
                def asv():
                    regs[rd] = vec(regs[rd], regs[rm], width)
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
                return asv
            handlers.append(h())

        # -- skim point --------------------------------------------------
        elif op == "SKM":
            def h(target=target, nxt=nxt, i=i):
                def skm():
                    hook = cpu.skim_hook
                    if hook is not None:
                        hook(target)
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
                return skm
            handlers.append(h())

        # -- control -----------------------------------------------------
        elif op == "HALT":
            def h(i=i):
                def halt():
                    cpu.halted = True
                    counts[i] += 1
                    return 1
                return halt
            handlers.append(h())
        elif op == "NOP":
            def h(nxt=nxt, i=i):
                def nop():
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
                return nop
            handlers.append(h())

        # -- single-cycle ALU --------------------------------------------
        else:
            handlers.append(
                _bind_alu(cpu, regs, flags, adder, instr, nxt, counts, i)
            )
    return handlers


def _bind_bcc(cpu, flags, cond, target, nxt, counts, taken, i):
    """Specialized closure for one conditional branch.

    The condition is inlined per mnemonic (mirroring
    :meth:`repro.isa.registers.Flags.condition`) rather than dispatched
    through a predicate call — conditional branches bound every loop in
    compiled kernels, so the extra frame per retire is measurable.
    """
    if cond == "EQ":
        def bcc():
            if flags.z:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "NE":
        def bcc():
            if not flags.z:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "LT":
        def bcc():
            if flags.n != flags.v:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "GE":
        def bcc():
            if flags.n == flags.v:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "GT":
        def bcc():
            if (not flags.z) and flags.n == flags.v:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "LE":
        def bcc():
            if flags.z or flags.n != flags.v:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "LO":
        def bcc():
            if not flags.c:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "HS":
        def bcc():
            if flags.c:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "HI":
        def bcc():
            if flags.c and not flags.z:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "LS":
        def bcc():
            if (not flags.c) or flags.z:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "MI":
        def bcc():
            if flags.n:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif cond == "PL":
        def bcc():
            if not flags.n:
                cpu.pc = target
                taken[i] += 1
                counts[i] += 1
                return 2
            cpu.pc = nxt
            counts[i] += 1
            return 1
    else:  # pragma: no cover - BRANCH_CONDS enumerates the conditions
        raise ValueError(f"unknown condition {cond!r}")
    return bcc


def _bind_alu(cpu, regs, flags, adder, instr, nxt, counts, i):
    """Specialized closure for one single-cycle ALU instruction.

    Expressions mirror ``ReferenceCPU._step_alu`` exactly: register
    writes use the same (sometimes unmasked) expressions, and NZ flags
    are always derived from the 32-bit-masked result. The adder's
    ``add32``/``sub32`` arithmetic is inlined (including its
    ``add_count`` bookkeeping) — a method call plus tuple round-trip per
    retire is most of what the reference interpreter pays for ALU ops.
    Register reads are re-masked because ``AND``/``ORR``/``EOR`` write
    unmasked results, exactly as ``SubwordAdder.add32`` does.
    """
    op = instr.op
    rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm
    has_rm = rm is not None

    if op == "MOV":
        if has_rm:
            def alu():
                result = regs[rm] & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
        else:
            val = imm & MASK32
            nval = val >= 0x80000000
            zval = val == 0

            def alu():
                regs[rd] = val
                flags.n = nval
                flags.z = zval
                cpu.pc = nxt
                counts[i] += 1
                return 1
    elif op == "MVN":
        if has_rm:
            def alu():
                result = (~regs[rm]) & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
        else:
            val = (~imm) & MASK32
            nval = val >= 0x80000000
            zval = val == 0

            def alu():
                regs[rd] = val
                flags.n = nval
                flags.z = zval
                cpu.pc = nxt
                counts[i] += 1
                return 1
    elif op in ("ADD", "ADC", "CMN"):
        # Inlined adder.add32: mask operands, add with carry, derive
        # C from the 33rd bit and V from the sign triple.
        carry_from_flags = op == "ADC"
        writes_rd = op != "CMN"
        if has_rm:
            if writes_rd and not carry_from_flags:  # ADD reg

                def alu():
                    a = regs[rn] & MASK32
                    b = regs[rm] & MASK32
                    total = a + b
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ result) & (b ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            else:

                def alu():
                    a = regs[rn] & MASK32
                    b = regs[rm] & MASK32
                    total = a + b + (1 if (carry_from_flags and flags.c) else 0)
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ result) & (b ^ result) & 0x80000000) != 0
                    if writes_rd:
                        regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
        else:
            b = imm & MASK32
            if writes_rd and not carry_from_flags:  # ADD imm

                def alu(b=b):
                    a = regs[rn] & MASK32
                    total = a + b
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ result) & (b ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            else:

                def alu(b=b):
                    a = regs[rn] & MASK32
                    total = a + b + (1 if (carry_from_flags and flags.c) else 0)
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ result) & (b ^ result) & 0x80000000) != 0
                    if writes_rd:
                        regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
    elif op in ("SUB", "SBC", "CMP"):
        # Inlined adder.sub32: a + ~b + carry-in, C = no-borrow, V from
        # the subtraction sign rule.
        carry_from_flags = op == "SBC"
        writes_rd = op != "CMP"
        if has_rm:
            if writes_rd and not carry_from_flags:  # SUB reg

                def alu():
                    a = regs[rn] & MASK32
                    b = regs[rm] & MASK32
                    total = a + ((~b) & MASK32) + 1
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            elif not writes_rd:  # CMP reg

                def alu():
                    a = regs[rn] & MASK32
                    b = regs[rm] & MASK32
                    total = a + ((~b) & MASK32) + 1
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            else:  # SBC reg

                def alu():
                    a = regs[rn] & MASK32
                    b = regs[rm] & MASK32
                    total = a + ((~b) & MASK32) + (1 if flags.c else 0)
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
        else:
            b = imm & MASK32
            nb = (~b) & MASK32
            if writes_rd and not carry_from_flags:  # SUB imm

                def alu(b=b, nb=nb):
                    a = regs[rn] & MASK32
                    total = a + nb + 1
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            elif not writes_rd:  # CMP imm

                def alu(b=b, nb=nb):
                    a = regs[rn] & MASK32
                    total = a + nb + 1
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
            else:  # SBC imm

                def alu(b=b, nb=nb):
                    a = regs[rn] & MASK32
                    total = a + nb + (1 if flags.c else 0)
                    result = total & MASK32
                    adder.add_count += 1
                    flags.c = total > MASK32
                    flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                    regs[rd] = result
                    flags.n = result >= 0x80000000
                    flags.z = result == 0
                    cpu.pc = nxt
                    counts[i] += 1
                    return 1
    elif op == "RSB":
        def alu():
            a = (regs[rm] if has_rm else imm) & MASK32
            b = regs[rn] & MASK32
            total = a + ((~b) & MASK32) + 1
            result = total & MASK32
            adder.add_count += 1
            flags.c = total > MASK32
            flags.v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
            regs[rd] = result
            flags.n = result >= 0x80000000
            flags.z = result == 0
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "NEG":
        def alu():
            b = (regs[rm] if has_rm else imm) & MASK32
            total = ((~b) & MASK32) + 1
            result = total & MASK32
            adder.add_count += 1
            flags.c = total > MASK32
            flags.v = (b & result & 0x80000000) != 0
            regs[rd] = result
            flags.n = result >= 0x80000000
            flags.z = result == 0
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "TST":
        def alu():
            src = regs[rm] if has_rm else imm
            masked = (regs[rn] & src) & MASK32
            flags.n = masked >= 0x80000000
            flags.z = masked == 0
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op in ("AND", "ORR", "EOR"):
        fn = {"AND": operator.and_, "ORR": operator.or_, "EOR": operator.xor}[op]

        def alu():
            src = regs[rm] if has_rm else imm
            result = fn(regs[rn], src)
            regs[rd] = result
            masked = result & MASK32
            flags.n = masked >= 0x80000000
            flags.z = masked == 0
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "BIC":
        def alu():
            src = regs[rm] if has_rm else imm
            result = regs[rn] & ~src & MASK32
            regs[rd] = result
            flags.n = result >= 0x80000000
            flags.z = result == 0
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "LSL":
        if has_rm:
            def alu():
                shift = min(regs[rm] & 0xFF, 32)
                result = (regs[rn] << shift) & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
        else:
            shift = min(imm & 0xFF, 32)

            def alu():
                result = (regs[rn] << shift) & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
    elif op == "LSR":
        if has_rm:
            def alu():
                shift = min(regs[rm] & 0xFF, 32)
                result = (regs[rn] & MASK32) >> shift
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
        else:
            shift = min(imm & 0xFF, 32)

            def alu():
                result = (regs[rn] & MASK32) >> shift
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
    elif op == "ASR":
        if has_rm:
            def alu():
                shift = min(regs[rm] & 0xFF, 32)
                v = regs[rn] & MASK32
                if v & 0x80000000:
                    v -= 0x100000000
                result = (v >> shift) & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
        else:
            shift = min(imm & 0xFF, 32)

            def alu():
                v = regs[rn] & MASK32
                if v & 0x80000000:
                    v -= 0x100000000
                result = (v >> shift) & MASK32
                regs[rd] = result
                flags.n = result >= 0x80000000
                flags.z = result == 0
                cpu.pc = nxt
                counts[i] += 1
                return 1
    elif op == "SXTB":
        def alu():
            src = regs[rm] if has_rm else imm
            v = src & 0xFF
            regs[rd] = (v | 0xFFFFFF00) if v & 0x80 else v
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "SXTH":
        def alu():
            src = regs[rm] if has_rm else imm
            v = src & 0xFFFF
            regs[rd] = (v | 0xFFFF0000) if v & 0x8000 else v
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "UXTB":
        def alu():
            src = regs[rm] if has_rm else imm
            regs[rd] = src & 0xFF
            cpu.pc = nxt
            counts[i] += 1
            return 1
    elif op == "UXTH":
        def alu():
            src = regs[rm] if has_rm else imm
            regs[rd] = src & 0xFFFF
            cpu.pc = nxt
            counts[i] += 1
            return 1
    else:  # pragma: no cover - Instruction() validates opcodes
        raise ValueError(f"unimplemented opcode {op!r}")
    return alu
