"""Code generation: kernel IR -> WN assembly -> executable program.

A deliberately simple compiler back end in the spirit of the paper's
target (a 2-stage MCU with 13 usable registers):

* arrays live at fixed NVM addresses; each gets a pinned base register;
* loop variables and named scalars get pinned registers (they must
  survive across SWP/SWV phases);
* expressions evaluate on a small scratch-register stack;
* multiplies by constants are strength-reduced to shift/add chains
  (address arithmetic must not hit the 16-cycle iterative multiplier);
* ``SkimPoint`` markers emit ``SKM END``.

:class:`CompiledKernel` bundles the assembled program with the memory
layout and staging/decoding helpers that understand the SWV subword-
major layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.subword import (
    pack_planes,
    pack_planes_provisioned,
    unpack_planes,
    unpack_planes_provisioned,
)
from ..isa.assembler import assemble
from ..isa.program import Program
from ..sim.adder import SubwordAdder
from ..sim.cpu import CPU
from ..sim.memory import Memory, default_memory
from ..sim.multiplier import Multiplier
from .ir import (
    Assign,
    Array,
    BinOp,
    Const,
    Expr,
    Kernel,
    Load,
    Loop,
    MulAsp,
    PLANE_MAJOR,
    PLANE_PROVISIONED,
    ROW_MAJOR,
    SkimPoint,
    Stmt,
    Store,
    SubwordLoad,
    Var,
    VecOp,
    walk_exprs,
    walk_statements,
)

#: First usable register; R13-R15 are SP/LR/PC.
NUM_ALLOCATABLE = 13
DEFAULT_DATA_BASE = 0x1000


class CodegenError(ValueError):
    """Raised when a kernel cannot be lowered (e.g. register pressure)."""


@dataclass
class ArraySlot:
    """Placement of one array in (non-volatile) data memory."""

    array: Array
    address: int

    @property
    def size_bytes(self) -> int:
        """Bytes the array occupies in data memory."""
        return self.array.length * self.array.element_bytes


class CompiledKernel:
    """A kernel lowered to machine code plus its data layout."""

    def __init__(
        self,
        kernel: Kernel,
        program: Program,
        slots: Dict[str, ArraySlot],
        source: str,
    ):
        self.kernel = kernel
        self.program = program
        self.slots = slots
        self.source = source

    # -- data staging ------------------------------------------------------

    def stage(self, memory: Memory, inputs: Dict[str, Sequence[int]]) -> None:
        """Write input arrays into memory (packing SWV layouts)."""
        for name, values in inputs.items():
            slot = self.slots[name]
            array = slot.array
            values = list(values)
            if array.layout == ROW_MAJOR:
                if len(values) != array.length:
                    raise ValueError(
                        f"{name}: expected {array.length} values, got {len(values)}"
                    )
                if array.element_bits == 16:
                    memory.write_halves(slot.address, values)
                else:
                    memory.write_words(slot.address, values)
            elif array.layout == PLANE_MAJOR:
                words = pack_planes(values, array.layout_bits, array.logical_bits)
                self._check_packed(name, array, words)
                memory.write_words(slot.address, words)
            elif array.layout == PLANE_PROVISIONED:
                words = pack_planes_provisioned(
                    values, array.layout_bits, array.logical_bits
                )
                self._check_packed(name, array, words)
                memory.write_words(slot.address, words)
            else:  # pragma: no cover - layouts are enumerated
                raise ValueError(f"unknown layout {array.layout!r}")

    @staticmethod
    def _check_packed(name: str, array: Array, words: List[int]) -> None:
        if len(words) != array.length:
            raise ValueError(
                f"{name}: packed to {len(words)} plane words, expected {array.length}"
            )

    def read_array(self, memory: Memory, name: str) -> List[int]:
        """Read an array back as logical element values (unpacking SWV)."""
        slot = self.slots[name]
        array = slot.array
        if array.layout == ROW_MAJOR:
            if array.element_bits == 16:
                return memory.read_halves(slot.address, array.length)
            return memory.read_words(slot.address, array.length)
        words = memory.read_words(slot.address, array.length)
        if array.layout == PLANE_MAJOR:
            return unpack_planes(
                words, array.layout_bits, array.logical_bits, array.logical_length
            )
        return unpack_planes_provisioned(
            words,
            array.layout_bits,
            array.logical_bits,
            array.logical_length,
            # Wrap at the logical element width: a carry out of the top
            # subword would overflow the row-major element too.
            result_bits=array.logical_bits,
        )

    def make_cpu(
        self,
        inputs: Dict[str, Sequence[int]],
        memory: Optional[Memory] = None,
        multiplier: Optional[Multiplier] = None,
        adder: Optional[SubwordAdder] = None,
        cpu_cls: type = CPU,
    ) -> CPU:
        """Build a CPU with the program loaded and inputs staged.

        ``cpu_cls`` selects the interpreter — the pre-decoded
        :class:`~repro.sim.cpu.CPU` by default, or
        :class:`~repro.sim.reference.ReferenceCPU` for golden-model runs.
        """
        memory = memory or default_memory()
        self.stage(memory, inputs)
        return cpu_cls(self.program, memory, multiplier=multiplier, adder=adder)

    @property
    def code_size_bytes(self) -> int:
        """Static code size of the program (see ``Program.code_size_bytes``)."""
        return self.program.code_size_bytes


# ---------------------------------------------------------------------------
# The generator.
# ---------------------------------------------------------------------------


class _RegisterFilePlan:
    """Static register assignment: arrays and scalars pinned, rest scratch."""

    def __init__(self, kernel: Kernel):
        names: List[str] = []
        names.extend(kernel.arrays)
        names.extend(kernel.scalars)
        for stmt in walk_statements(kernel.body):
            if isinstance(stmt, Loop) and stmt.var not in names:
                names.append(stmt.var)
        if len(names) > NUM_ALLOCATABLE - 3:
            raise CodegenError(
                f"kernel {kernel.name!r} needs {len(names)} pinned registers; "
                f"only {NUM_ALLOCATABLE - 3} available"
            )
        self.pinned: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.scratch: List[int] = list(range(len(names), NUM_ALLOCATABLE))

    def reg_of(self, name: str) -> int:
        return self.pinned[name]


class CodeGenerator:
    """Lowers one kernel to assembly source."""

    def __init__(self, kernel: Kernel, data_base: int = DEFAULT_DATA_BASE):
        kernel.validate()
        self.kernel = kernel
        self.plan = _RegisterFilePlan(kernel)
        self.slots = self._place_arrays(data_base)
        self.lines: List[str] = []
        self._free: List[int] = []
        self._label_counter = 0
        self._pointers: Dict["_AccessPattern", int] = {}
        self._load_dups: frozenset = frozenset()
        self._load_cache: Dict[tuple, int] = {}

    # -- memory placement --------------------------------------------------

    def _place_arrays(self, base: int) -> Dict[str, ArraySlot]:
        slots: Dict[str, ArraySlot] = {}
        address = base
        for name, array in self.kernel.arrays.items():
            address = (address + 3) & ~3  # word alignment
            slots[name] = ArraySlot(array, address)
            address += array.length * array.element_bytes
        return slots

    # -- driver ----------------------------------------------------------------

    def generate(self) -> CompiledKernel:
        """Emit the kernel's assembly, assemble it and bundle the result
        with the data layout."""
        self.lines = [f"@ kernel {self.kernel.name} (generated)"]
        for name, slot in self.slots.items():
            self._emit(f"MOV R{self.plan.reg_of(name)}, #{slot.address:#x}")
        for scalar in self.kernel.scalars:
            self._emit(f"MOV R{self.plan.reg_of(scalar)}, #0")
        self._free = list(self.plan.scratch)
        self._gen_body(self.kernel.body)
        self._emit("END:")
        self._emit("HALT")
        source = "\n".join(self.lines)
        program = assemble(source, name=self.kernel.name)
        return CompiledKernel(self.kernel, program, self.slots, source)

    # -- helpers ------------------------------------------------------------------

    def _emit(self, line: str) -> None:
        self.lines.append(line)

    def _label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def _alloc(self) -> int:
        if not self._free:
            raise CodegenError(f"out of scratch registers in {self.kernel.name!r}")
        return self._free.pop()

    def _release(self, reg: int, owned: bool) -> None:
        if owned:
            self._free.append(reg)

    def _own(self, reg: int, owned: bool) -> int:
        """Ensure the value is in a destructible (scratch) register."""
        if owned:
            return reg
        fresh = self._alloc()
        self._emit(f"MOV R{fresh}, R{reg}")
        return fresh

    # -- statements ----------------------------------------------------------------

    def _gen_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self._begin_statement(stmt)
            if isinstance(stmt, Assign):
                self._gen_assign(stmt)
            elif isinstance(stmt, Store):
                self._gen_store(stmt)
            elif isinstance(stmt, Loop):
                self._gen_loop(stmt)
            elif isinstance(stmt, SkimPoint):
                self._emit("SKM END")
            else:  # pragma: no cover - statements enumerated
                raise CodegenError(f"unknown statement {stmt!r}")
            self._end_statement()

    # -- statement-level load CSE ---------------------------------------------
    #
    # A load that appears more than once in one statement (e.g. Var's
    # X[i] * X[i], or a calibration polynomial reusing the same subword)
    # is issued once and its register reused — the standard common-
    # subexpression elimination any compiler performs within a basic
    # block. No store can intervene within a single statement, so the
    # cached value cannot go stale.

    def _begin_statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, (Loop, SkimPoint)):
            self._load_dups = frozenset()
            self._load_cache = {}
            return
        counts: Dict[tuple, int] = {}
        exprs = [stmt.expr] if isinstance(stmt, (Assign, Store)) else []
        for expr in exprs:
            for node in walk_exprs(expr):
                key = _load_key(node)
                if key is not None:
                    counts[key] = counts.get(key, 0) + 1
        self._load_dups = frozenset(k for k, n in counts.items() if n > 1)
        self._load_cache = {}

    def _end_statement(self) -> None:
        for reg in getattr(self, "_load_cache", {}).values():
            self._free.append(reg)
        self._load_cache = {}
        self._load_dups = frozenset()

    def _cached_load(self, key, generate) -> Tuple[int, bool]:
        """Issue a duplicated load once; later uses borrow its register."""
        if key in self._load_cache:
            return self._load_cache[key], False
        reg = generate()
        if key in self._load_dups:
            self._load_cache[key] = reg
            return reg, False  # the cache owns it until statement end
        return reg, True

    def _gen_assign(self, stmt: Assign) -> None:
        dest = self.plan.reg_of(stmt.var)
        # Peephole: var = var OP x  ->  OP Rv, Rv, x
        expr = stmt.expr
        if (
            isinstance(expr, BinOp)
            and isinstance(expr.lhs, Var)
            and expr.lhs.name == stmt.var
            and expr.op in ("+", "-", "&", "|", "^", "<<", ">>")
        ):
            mnemonic = _BINOP_MNEMONIC[expr.op]
            if isinstance(expr.rhs, Const):
                self._emit(f"{mnemonic} R{dest}, R{dest}, #{expr.rhs.value}")
                return
            reg, owned = self._gen_expr(expr.rhs)
            self._emit(f"{mnemonic} R{dest}, R{dest}, R{reg}")
            self._release(reg, owned)
            return
        if (
            isinstance(expr, VecOp)
            and isinstance(expr.lhs, Var)
            and expr.lhs.name == stmt.var
        ):
            reg, owned = self._gen_expr(expr.rhs)
            mnemonic = "ADD" if expr.op == "+" else "SUB"
            self._emit(f"{mnemonic}_ASV{expr.lane_bits} R{dest}, R{reg}")
            self._release(reg, owned)
            return

        reg, owned = self._gen_expr(expr)
        if reg != dest:
            self._emit(f"MOV R{dest}, R{reg}")
        self._release(reg, owned)

    def _gen_store(self, stmt: Store) -> None:
        array = self.kernel.arrays[stmt.array]
        value_reg, value_owned = self._gen_expr(stmt.expr)
        store_op = "STRH" if array.element_bits == 16 else "STR"
        load_op = "LDRH" if array.element_bits == 16 else "LDR"

        pointer = self._pointer_for(stmt.array, stmt.index)
        if pointer is not None:
            reg, offset = pointer
            if stmt.accumulate:
                value_reg = self._own(value_reg, value_owned)
                value_owned = True
                old = self._alloc()
                self._emit(f"{load_op} R{old}, [R{reg}, #{offset}]")
                self._emit(f"ADD R{value_reg}, R{value_reg}, R{old}")
                self._release(old, True)
            self._emit(f"{store_op} R{value_reg}, [R{reg}, #{offset}]")
            self._release(value_reg, value_owned)
            return

        if isinstance(stmt.index, Const):
            offset = stmt.index.value * array.element_bytes
            base = self.plan.reg_of(stmt.array)
            if stmt.accumulate:
                value_reg = self._own(value_reg, value_owned)
                value_owned = True
                old = self._alloc()
                self._emit(f"{load_op} R{old}, [R{base}, #{offset}]")
                self._emit(f"ADD R{value_reg}, R{value_reg}, R{old}")
                self._release(old, True)
            self._emit(f"{store_op} R{value_reg}, [R{base}, #{offset}]")
            self._release(value_reg, value_owned)
            return

        addr_reg = self._gen_address(stmt.array, stmt.index)
        if stmt.accumulate:
            value_reg = self._own(value_reg, value_owned)
            value_owned = True
            old = self._alloc()
            self._emit(f"{load_op} R{old}, [R{addr_reg}, #0]")
            self._emit(f"ADD R{value_reg}, R{value_reg}, R{old}")
            self._release(old, True)
        self._emit(f"{store_op} R{value_reg}, [R{addr_reg}, #0]")
        self._release(addr_reg, True)
        self._release(value_reg, value_owned)

    def _gen_loop(self, stmt: Loop) -> None:
        if stmt.start >= stmt.end:
            return
        var = self.plan.reg_of(stmt.var)
        head = self._label(f"L_{stmt.var.strip('_')}")
        pointers = self._plan_pointers(stmt)
        self._emit(f"MOV R{var}, #{stmt.start}")
        for pattern, reg in pointers.items():
            self._gen_pointer_init(stmt, pattern, reg)
        saved, self._pointers = self._pointers, pointers
        self._emit(f"{head}:")
        self._gen_body(stmt.body)
        for pattern, reg in pointers.items():
            bump = pattern.stride * self.kernel.arrays[pattern.array].element_bytes * stmt.step
            self._emit(f"ADD R{reg}, R{reg}, #{bump}")
        self._emit(f"ADD R{var}, R{var}, #{stmt.step}")
        self._emit(f"CMP R{var}, #{stmt.end}")
        self._emit(f"BLT {head}")
        self._pointers = saved
        for reg in pointers.values():
            self._free.append(reg)

    # -- induction-variable strength reduction --------------------------------
    #
    # Accesses indexed affinely by the innermost loop variable are
    # rewritten to pointer bumps (LDR [Rp, #0]; ADD Rp, Rp, #stride) —
    # the standard compiler optimization; without it, per-access address
    # arithmetic would dilute the long-latency multiplies that WN
    # targets and distort the instruction mix against the paper's.

    def _plan_pointers(self, loop: Loop) -> Dict["_AccessPattern", int]:
        if any(isinstance(s, Loop) for s in loop.body):
            return {}  # only innermost loops
        assigned = {s.var for s in loop.body if isinstance(s, Assign)}
        patterns = []
        for node in _memory_accesses(loop.body):
            pattern = _match_affine(node, loop.var, self.kernel, assigned)
            if pattern is not None and pattern not in patterns:
                patterns.append(pattern)
        # Reserve only the scratch registers expression evaluation will
        # actually need (Sethi-Ullman style estimate, aware of which
        # accesses the pointers will cover), plus one for safety; the
        # rest can carry pointers. Try the largest pattern subset that
        # fits.
        for count in range(len(patterns), 0, -1):
            covered = patterns[:count]

            def is_covered(array: str, index: Expr) -> bool:
                return any(p.array == array and p.matches(index) for p in covered)

            reserve = max(2, _scratch_need(loop.body, is_covered) + 1)
            if len(self._free) - reserve >= count:
                return {pattern: self._alloc() for pattern in covered}
        return {}

    def _gen_pointer_init(self, loop: Loop, pattern: "_AccessPattern", reg: int) -> None:
        """ptr = array_base + (start*stride + core) * element_bytes."""
        array = self.kernel.arrays[pattern.array]
        base = self.plan.reg_of(pattern.array)
        offset_expr = pattern.core
        start_offset = loop.start * pattern.stride
        if start_offset:
            offset_expr = BinOp("+", offset_expr, Const(start_offset))
        rest_reg, rest_owned = self._gen_expr(offset_expr)
        shift = {1: 0, 2: 1, 4: 2}[array.element_bytes]
        if shift:
            self._emit(f"LSL R{reg}, R{rest_reg}, #{shift}")
        elif rest_reg != reg:
            self._emit(f"MOV R{reg}, R{rest_reg}")
        self._release(rest_reg, rest_owned)
        self._emit(f"ADD R{reg}, R{reg}, R{base}")

    def _pointer_for(self, array: str, index: Expr) -> Optional[Tuple[int, int]]:
        """(pointer register, byte offset) covering this access, if any."""
        if not self._pointers:
            return None
        ebytes = self.kernel.arrays[array].element_bytes
        for pattern, reg in self._pointers.items():
            if pattern.array != array:
                continue
            offset = pattern.offset_of(index)
            if offset is not None:
                return reg, offset * ebytes
        return None

    # -- expressions -----------------------------------------------------------------

    def _gen_expr(self, expr: Expr) -> Tuple[int, bool]:
        """Emit code computing ``expr``; returns (register, owned)."""
        if isinstance(expr, Const):
            reg = self._alloc()
            self._emit(f"MOV R{reg}, #{expr.value}")
            return reg, True
        if isinstance(expr, Var):
            return self.plan.reg_of(expr.name), False
        if isinstance(expr, Load):
            return self._cached_load(_load_key(expr), lambda: self._gen_load(expr))
        if isinstance(expr, SubwordLoad):
            return self._cached_load(_load_key(expr), lambda: self._gen_subword_load(expr))
        if isinstance(expr, MulAsp):
            lhs_reg, lhs_owned = self._gen_expr(expr.lhs)
            lhs_reg = self._own(lhs_reg, lhs_owned)
            sub_reg, sub_owned = self._gen_expr(expr.sub)
            mnemonic = f"MUL_ASPS{expr.width}" if expr.signed_sub else f"MUL_ASP{expr.width}"
            if expr.shift % expr.width == 0:
                position = expr.shift // expr.width
                self._emit(f"{mnemonic} R{lhs_reg}, R{sub_reg}, #{position}")
            else:
                # Misaligned significance (non-dividing width): the
                # instruction cannot encode it, so shift explicitly.
                self._emit(f"{mnemonic} R{lhs_reg}, R{sub_reg}, #0")
                self._emit(f"LSL R{lhs_reg}, R{lhs_reg}, #{expr.shift}")
            self._release(sub_reg, sub_owned)
            return lhs_reg, True
        if isinstance(expr, VecOp):
            lhs_reg, lhs_owned = self._gen_expr(expr.lhs)
            lhs_reg = self._own(lhs_reg, lhs_owned)
            rhs_reg, rhs_owned = self._gen_expr(expr.rhs)
            mnemonic = "ADD" if expr.op == "+" else "SUB"
            self._emit(f"{mnemonic}_ASV{expr.lane_bits} R{lhs_reg}, R{rhs_reg}")
            self._release(rhs_reg, rhs_owned)
            return lhs_reg, True
        if isinstance(expr, BinOp):
            return self._gen_binop(expr)
        raise CodegenError(f"unknown expression {expr!r}")  # pragma: no cover

    def _gen_binop(self, expr: BinOp) -> Tuple[int, bool]:
        if expr.op == "*":
            return self._gen_multiply(expr)
        mnemonic = _BINOP_MNEMONIC[expr.op]
        lhs_reg, lhs_owned = self._gen_expr(expr.lhs)
        if isinstance(expr.rhs, Const):
            dest = lhs_reg if lhs_owned else self._alloc()
            self._emit(f"{mnemonic} R{dest}, R{lhs_reg}, #{expr.rhs.value}")
            return dest, True
        rhs_reg, rhs_owned = self._gen_expr(expr.rhs)
        dest = self._own(lhs_reg, lhs_owned)
        self._emit(f"{mnemonic} R{dest}, R{dest}, R{rhs_reg}")
        self._release(rhs_reg, rhs_owned)
        return dest, True

    def _gen_multiply(self, expr: BinOp) -> Tuple[int, bool]:
        """Full-width multiply; constants strength-reduce to shift/adds."""
        lhs, rhs = expr.lhs, expr.rhs
        if isinstance(lhs, Const) and not isinstance(rhs, Const):
            lhs, rhs = rhs, lhs
        if isinstance(rhs, Const):
            return self._gen_mul_const(lhs, rhs.value)
        lhs_reg, lhs_owned = self._gen_expr(lhs)
        lhs_reg = self._own(lhs_reg, lhs_owned)
        rhs_reg, rhs_owned = self._gen_expr(rhs)
        self._emit(f"MUL R{lhs_reg}, R{rhs_reg}")
        self._release(rhs_reg, rhs_owned)
        return lhs_reg, True

    def _gen_mul_const(self, operand: Expr, constant: int) -> Tuple[int, bool]:
        reg, owned = self._gen_expr(operand)
        if constant == 0:
            self._release(reg, owned)
            dest = self._alloc()
            self._emit(f"MOV R{dest}, #0")
            return dest, True
        if constant == 1:
            return reg, owned
        bits = [i for i in range(32) if constant & (1 << i)]
        if len(bits) <= 3:
            # Shift-add decomposition (compilers never emit a 16-cycle
            # iterative multiply for an address stride).
            dest = self._alloc()
            self._emit(f"LSL R{dest}, R{reg}, #{bits[-1]}")
            for bit in reversed(bits[:-1]):
                temp = self._alloc()
                self._emit(f"LSL R{temp}, R{reg}, #{bit}")
                self._emit(f"ADD R{dest}, R{dest}, R{temp}")
                self._release(temp, True)
            self._release(reg, owned)
            return dest, True
        dest = self._own(reg, owned)
        temp = self._alloc()
        self._emit(f"MOV R{temp}, #{constant}")
        self._emit(f"MUL R{dest}, R{temp}")
        self._release(temp, True)
        return dest, True

    # -- memory access ----------------------------------------------------------------

    def _gen_address(self, array_name: str, index: Expr) -> int:
        """Byte address of ``array[index]`` in an owned register."""
        array = self.kernel.arrays[array_name]
        base = self.plan.reg_of(array_name)
        idx_reg, idx_owned = self._gen_expr(index)
        shift = {1: 0, 2: 1, 4: 2}[array.element_bytes]
        if shift:
            addr = idx_reg if idx_owned else self._alloc()
            self._emit(f"LSL R{addr}, R{idx_reg}, #{shift}")
        else:
            addr = self._own(idx_reg, idx_owned)
        self._emit(f"ADD R{addr}, R{addr}, R{base}")
        return addr

    def _gen_load(self, expr: Load) -> int:
        array = self.kernel.arrays[expr.array]
        op = "LDRH" if array.element_bits == 16 else "LDR"
        pointer = self._pointer_for(expr.array, expr.index)
        if pointer is not None:
            reg, offset = pointer
            dest = self._alloc()
            self._emit(f"{op} R{dest}, [R{reg}, #{offset}]")
        elif isinstance(expr.index, Const):
            dest = self._alloc()
            offset = expr.index.value * array.element_bytes
            self._emit(f"{op} R{dest}, [R{self.plan.reg_of(expr.array)}, #{offset}]")
        else:
            dest = self._gen_address(expr.array, expr.index)
            self._emit(f"{op} R{dest}, [R{dest}, #0]")
        if array.signed and array.element_bits == 16:
            self._emit(f"SXTH R{dest}, R{dest}")
        return dest

    def _gen_subword_load(self, expr: SubwordLoad) -> int:
        """Load one subword of an element (paper's LDRB in Listing 2)."""
        array = self.kernel.arrays[expr.array]
        ebytes = array.element_bytes
        width, offset = expr.width, expr.offset

        if expr.signed:
            return self._gen_signed_subword_load(expr, array)

        if width == 8 and offset % 8 == 0:
            return self._gen_byte_load(expr.array, expr.index, ebytes, byte_off=offset // 8)
        if width == 4 and offset % 4 == 0:
            dest = self._gen_byte_load(expr.array, expr.index, ebytes, byte_off=offset // 8)
            if offset % 8:
                self._emit(f"LSR R{dest}, R{dest}, #4")
            else:
                self._emit(f"AND R{dest}, R{dest}, #15")
            return dest

        # Small or misaligned subwords: load the element, shift, mask.
        dest = self._gen_load(Load(expr.array, expr.index))
        if offset:
            self._emit(f"LSR R{dest}, R{dest}, #{offset}")
        self._emit(f"AND R{dest}, R{dest}, #{(1 << width) - 1}")
        return dest

    def _gen_signed_subword_load(self, expr: SubwordLoad, array) -> int:
        """Sign-extended most significant subword of a signed element.

        Byte-aligned top bytes use LDRB+SXTB; everything else loads the
        element, sign-extends it, and arithmetic-shifts the subword's
        low bits away (the sign rides along for free)."""
        width, offset = expr.width, expr.offset
        if width == 8 and offset % 8 == 0 and offset + 8 == array.element_bits:
            dest = self._gen_byte_load(expr.array, expr.index, array.element_bytes,
                                       byte_off=offset // 8)
            self._emit(f"SXTB R{dest}, R{dest}")
            return dest
        dest = self._gen_load(Load(expr.array, expr.index))
        if not array.signed and array.element_bits == 16:
            # _gen_load only sign-extends declared-signed arrays.
            self._emit(f"SXTH R{dest}, R{dest}")
        if offset:
            self._emit(f"ASR R{dest}, R{dest}, #{offset}")
        return dest

    def _gen_byte_load(
        self, array_name: str, index: Expr, ebytes: int, byte_off: int
    ) -> int:
        base = self.plan.reg_of(array_name)
        pointer = self._pointer_for(array_name, index)
        if pointer is not None:
            reg, offset = pointer
            dest = self._alloc()
            self._emit(f"LDRB R{dest}, [R{reg}, #{offset + byte_off}]")
            return dest
        if isinstance(index, Const):
            dest = self._alloc()
            self._emit(f"LDRB R{dest}, [R{base}, #{index.value * ebytes + byte_off}]")
            return dest
        idx_reg, idx_owned = self._gen_expr(index)
        shift = {1: 0, 2: 1, 4: 2}[ebytes]
        if shift:
            addr = idx_reg if idx_owned else self._alloc()
            self._emit(f"LSL R{addr}, R{idx_reg}, #{shift}")
        else:
            addr = self._own(idx_reg, idx_owned)
        self._emit(f"ADD R{addr}, R{addr}, R{base}")
        self._emit(f"LDRB R{addr}, [R{addr}, #{byte_off}]")
        return addr


_BINOP_MNEMONIC = {
    "+": "ADD",
    "-": "SUB",
    "&": "AND",
    "|": "ORR",
    "^": "EOR",
    "<<": "LSL",
    ">>": "LSR",
}


def _scratch_need(body, is_covered=None) -> int:
    """Worst-case simultaneous scratch registers for a flat loop body.

    A Sethi-Ullman-style bound: expressions evaluate left-to-right,
    holding the left value while the right evaluates. ``is_covered``
    reports which (array, index) accesses will go through planned
    pointer registers (cost 1 instead of their address arithmetic).
    """
    covered = is_covered or (lambda array, index: False)

    def expr_need(expr: Expr) -> int:
        if isinstance(expr, (Const, Var)):
            return 1
        if isinstance(expr, (Load, SubwordLoad)):
            if isinstance(expr.index, Const) or covered(expr.array, expr.index):
                return 1
            return max(1, expr_need(expr.index))
        if isinstance(expr, (BinOp, MulAsp, VecOp)):
            lhs = expr.lhs
            rhs = expr.sub if isinstance(expr, MulAsp) else expr.rhs
            left = expr_need(lhs)
            if isinstance(rhs, Const) and isinstance(expr, BinOp) and expr.op != "*":
                return left
            return max(left, expr_need(rhs) + 1)
        return 2

    need = 2
    for stmt in body:
        if isinstance(stmt, Assign):
            expr = stmt.expr
            if (
                isinstance(expr, (BinOp, VecOp))
                and isinstance(expr.lhs, Var)
                and expr.lhs.name == stmt.var
            ):
                # var = var OP rhs compiles to an in-place update: only
                # the right-hand side needs scratch registers.
                need = max(need, expr_need(expr.rhs))
                continue
            need = max(need, expr_need(expr))
        elif isinstance(stmt, Store):
            store_need = expr_need(stmt.expr) + (1 if stmt.accumulate else 0)
            if not isinstance(stmt.index, Const) and not covered(stmt.array, stmt.index):
                store_need = max(store_need, expr_need(stmt.index) + 1)
            need = max(need, store_need)
    return need


# ---------------------------------------------------------------------------
# Affine access analysis for induction-variable strength reduction.
# ---------------------------------------------------------------------------


class _AccessPattern:
    """A family of pointer-worthy accesses:
    ``array[stride * loop_var + core + const]``.

    Accesses sharing (array, stride, core) but differing in the constant
    share one pointer register; the constant becomes the load/store's
    immediate offset (the way a compiler folds ``p[0], p[n], p[2n]``
    into one base register).
    """

    __slots__ = ("array", "stride", "core", "loop_var", "_key")

    def __init__(self, array: str, stride: int, core: Expr, loop_var: str):
        self.array = array
        self.stride = stride
        self.core = core
        self.loop_var = loop_var
        self._key = (array, stride, _expr_key(core))

    def offset_of(self, index: Expr) -> Optional[int]:
        """Element offset of ``index`` within this family, or None."""
        split = _split_affine(index, self.loop_var)
        if split is None:
            return None
        stride, rest = split
        if stride != self.stride:
            return None
        core, const = _split_const(rest)
        if _expr_key(core) != self._key[2]:
            return None
        return const

    def matches(self, index: Expr) -> bool:
        return self.offset_of(index) is not None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _AccessPattern) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _split_const(expr: Expr):
    """Separate additive constant terms: expr == core + const."""
    if isinstance(expr, Const):
        return Const(0), expr.value
    if isinstance(expr, BinOp) and expr.op == "+":
        lhs_core, lhs_const = _split_const(expr.lhs)
        rhs_core, rhs_const = _split_const(expr.rhs)
        return _add_exprs(lhs_core, rhs_core), lhs_const + rhs_const
    return expr, 0


def _load_key(node: Expr):
    """Cache key for a memory read, or None for non-load nodes."""
    if isinstance(node, Load):
        return ("ld", node.array, _expr_key(node.index))
    if isinstance(node, SubwordLoad):
        return ("sw", node.array, _expr_key(node.index), node.width, node.offset, node.signed)
    return None


def _expr_key(expr: Expr) -> str:
    """Canonical structural key for loop-invariant expressions."""
    if isinstance(expr, Const):
        return f"c{expr.value}"
    if isinstance(expr, Var):
        return f"v{expr.name}"
    if isinstance(expr, BinOp):
        return f"({_expr_key(expr.lhs)}{expr.op}{_expr_key(expr.rhs)})"
    if isinstance(expr, Load):
        return f"ld[{expr.array}:{_expr_key(expr.index)}]"
    return repr(expr)


def _split_affine(expr: Expr, var: str):
    """Decompose ``expr`` as ``stride * var + rest`` (rest free of var).

    Returns ``(stride, rest)`` or None if the expression is not affine
    in ``var``."""
    if isinstance(expr, Var):
        if expr.name == var:
            return 1, Const(0)
        return 0, expr
    if isinstance(expr, Const):
        return 0, expr
    if isinstance(expr, BinOp):
        if expr.op == "+":
            lhs = _split_affine(expr.lhs, var)
            rhs = _split_affine(expr.rhs, var)
            if lhs is None or rhs is None:
                return None
            return lhs[0] + rhs[0], _add_exprs(lhs[1], rhs[1])
        if expr.op == "*":
            lhs, rhs = expr.lhs, expr.rhs
            if isinstance(rhs, Const):
                inner = _split_affine(lhs, var)
                if inner is None:
                    return None
                stride, rest = inner
                return stride * rhs.value, _mul_expr(rest, rhs.value)
            if isinstance(lhs, Const):
                inner = _split_affine(rhs, var)
                if inner is None:
                    return None
                stride, rest = inner
                return stride * lhs.value, _mul_expr(rest, lhs.value)
            if not _mentions(expr, var):
                return 0, expr
            return None
    if not _mentions(expr, var):
        return 0, expr
    return None


def _add_exprs(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def _mul_expr(expr: Expr, factor: int) -> Expr:
    if isinstance(expr, Const):
        return Const(expr.value * factor)
    if factor == 1:
        return expr
    return BinOp("*", expr, Const(factor))


def _mentions(expr: Expr, var: str) -> bool:
    return any(isinstance(n, Var) and n.name == var for n in walk_exprs(expr))


def _memory_accesses(body):
    """Yield (array, index) for every Load/SubwordLoad/Store in a flat body."""
    for stmt in body:
        exprs = []
        if isinstance(stmt, Assign):
            exprs.append(stmt.expr)
        elif isinstance(stmt, Store):
            yield stmt.array, stmt.index
            exprs.append(stmt.expr)
        for expr in exprs:
            for node in walk_exprs(expr):
                if isinstance(node, (Load, SubwordLoad)):
                    yield node.array, node.index


def _match_affine(access, loop_var: str, kernel: Kernel, assigned_vars) -> Optional[_AccessPattern]:
    array, index = access
    split = _split_affine(index, loop_var)
    if split is None:
        return None
    stride, rest = split
    if stride == 0:
        return None  # loop-invariant: no bump needed
    # The rest must be loop-invariant: free of scalars assigned in the body.
    for node in walk_exprs(rest):
        if isinstance(node, Var) and node.name in assigned_vars:
            return None
        if isinstance(node, (Load, SubwordLoad)):
            return None  # indirect index: too clever to strength-reduce
    core, _ = _split_const(rest)
    return _AccessPattern(array, stride, core, loop_var)


def compile_kernel(kernel: Kernel, data_base: int = DEFAULT_DATA_BASE) -> CompiledKernel:
    """Lower a kernel (precise or WN-transformed) to machine code."""
    return CodeGenerator(kernel, data_base).generate()
