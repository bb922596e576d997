"""Instruction definitions for the WN target ISA.

The ISA is a compact register machine modelled on the ARM Cortex M0+
(Thumb-like) core that the paper targets: a 32-bit datapath, 16
registers (R13 = SP, R14 = LR, R15 = PC), NZCV flags, byte-addressable
little-endian memory, and an iterative multiplier. On top of the
baseline ISA it adds the What's Next extensions:

* ``MUL_ASP<B> Rd, Rm, #pos`` — anytime subword-pipelined multiply.
  Computes ``Rd <- (Rd * Rm) << (B * pos)`` in ``B`` cycles, where ``Rm``
  holds one ``B``-bit subword of the original operand and ``pos`` is the
  subword's position (0 = least significant).
* ``ADD_ASV<L> Rd, Rm`` / ``SUB_ASV<L> Rd, Rm`` — anytime subword-
  vectorized add/subtract with the carry chain cut every ``L`` bits
  (muxes force carry-in zero at lane boundaries).
* ``SKM label`` — skim point: stores the address of ``label`` into a
  dedicated non-volatile register. On restore from a power outage the
  runtime jumps there instead of the checkpointed PC.

Instruction objects are produced by the assembler
(:mod:`repro.isa.assembler`) or by the compiler back end
(:mod:`repro.compiler.codegen`) and interpreted by
:class:`repro.sim.cpu.CPU`.
"""

from __future__ import annotations

from typing import Optional

#: Register aliases understood by the assembler.
SP = 13
LR = 14
PC = 15
NUM_REGS = 16

#: Subword widths supported by the anytime multiply (MUL_ASP<B>).
ASP_WIDTHS = (1, 2, 3, 4, 8, 16)

#: Lane widths supported by the anytime vector add (ADD_ASV<L>).
ASV_WIDTHS = (4, 8, 16)

#: Cycle cost of the full-precision iterative multiply (16x16 -> 32).
#: The M0+ multiplies one operand bit per cycle (paper, Section III-A).
MUL_CYCLES = 16

# ---------------------------------------------------------------------------
# Opcode tables.
# ---------------------------------------------------------------------------

#: Single-cycle register/immediate ALU operations.
ALU_OPS = frozenset(
    {
        "MOV",
        "MVN",
        "ADD",
        "ADC",
        "SUB",
        "SBC",
        "RSB",
        "AND",
        "ORR",
        "EOR",
        "BIC",
        "LSL",
        "LSR",
        "ASR",
        "CMP",
        "CMN",
        "TST",
        "NEG",
        "SXTB",
        "SXTH",
        "UXTB",
        "UXTH",
    }
)

#: Two-cycle memory operations (M0+ loads/stores take 2 cycles).
LOAD_OPS = frozenset({"LDR", "LDRB", "LDRH"})
STORE_OPS = frozenset({"STR", "STRB", "STRH"})
MEM_OPS = LOAD_OPS | STORE_OPS

#: Conditional branch mnemonics and the condition they encode.
BRANCH_CONDS = {
    "BEQ": "EQ",
    "BNE": "NE",
    "BLT": "LT",
    "BGE": "GE",
    "BGT": "GT",
    "BLE": "LE",
    "BLO": "LO",  # unsigned <   (C clear)
    "BHS": "HS",  # unsigned >=  (C set)
    "BHI": "HI",  # unsigned >
    "BLS": "LS",  # unsigned <=
    "BMI": "MI",
    "BPL": "PL",
}

#: Unconditional control flow.
FLOW_OPS = frozenset({"B", "BL", "BX", "HALT", "NOP"}) | frozenset(BRANCH_CONDS)

#: What's Next extension mnemonics (computed, not hand-listed, so the
#: supported-width tables above stay the single source of truth).
#: MUL_ASPS<B> is the signed variant: the subword register holds a
#: sign-extended most significant subword (Booth-style iteration over B
#: magnitude bits), used for the top phase of signed operands.
ASP_OPS = frozenset(f"MUL_ASP{b}" for b in ASP_WIDTHS)
ASPS_OPS = frozenset(f"MUL_ASPS{b}" for b in ASP_WIDTHS)
ASV_OPS = frozenset(f"{op}_ASV{w}" for op in ("ADD", "SUB") for w in ASV_WIDTHS)
WN_OPS = ASP_OPS | ASPS_OPS | ASV_OPS | frozenset({"SKM", "MUL"})

#: Every mnemonic the CPU can execute.
ALL_OPS = ALU_OPS | MEM_OPS | FLOW_OPS | WN_OPS


class Instruction:
    """A decoded instruction.

    Attributes mirror the classic three-register format; unused fields
    are ``None``. ``target`` is the resolved branch/skim destination
    (an instruction index) filled in by the assembler's second pass.
    """

    __slots__ = ("op", "rd", "rn", "rm", "imm", "label", "target", "text", "line")

    def __init__(
        self,
        op: str,
        rd: Optional[int] = None,
        rn: Optional[int] = None,
        rm: Optional[int] = None,
        imm: Optional[int] = None,
        label: Optional[str] = None,
        target: Optional[int] = None,
        text: str = "",
        line: int = 0,
    ):
        if op not in ALL_OPS:
            raise ValueError(f"unknown opcode {op!r}")
        self.op = op
        self.rd = rd
        self.rn = rn
        self.rm = rm
        self.imm = imm
        self.label = label
        self.target = target
        self.text = text
        self.line = line

    # The WN extension instructions are 32-bit encodings; the baseline
    # Thumb-like instructions are 16-bit. Used for code-size accounting
    # (the paper reports ~1 KB growth for the largest 4-bit benchmark).
    @property
    def size_bytes(self) -> int:
        if self.op in WN_OPS and self.op != "MUL":
            return 4
        return 2

    @property
    def is_branch(self) -> bool:
        return self.op in FLOW_OPS and self.op not in ("HALT", "NOP")

    @property
    def is_wn(self) -> bool:
        """True for the What's Next extension ops (ASP / ASV / SKM)."""
        return self.op in WN_OPS and self.op != "MUL"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = []
        for name in ("rd", "rn", "rm", "imm", "label", "target"):
            value = getattr(self, name)
            if value is not None:
                fields.append(f"{name}={value!r}")
        return f"Instruction({self.op}, {', '.join(fields)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.op == other.op
            and self.rd == other.rd
            and self.rn == other.rn
            and self.rm == other.rm
            and self.imm == other.imm
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((self.op, self.rd, self.rn, self.rm, self.imm, self.label))


def mem_width(op: str) -> int:
    """Bytes a load or store mnemonic moves: 4 (``LDR``/``STR``), 1
    (``LDRB``/``STRB``) or 2 (``LDRH``/``STRH``)."""
    return 4 if op.endswith("R") else (1 if op.endswith("B") else 2)


def asp_width(op: str) -> int:
    """Subword width of a ``MUL_ASP[S]<B>`` mnemonic (raises for others)."""
    if op in ASP_OPS:
        return int(op[len("MUL_ASP"):])
    if op in ASPS_OPS:
        return int(op[len("MUL_ASPS"):])
    raise ValueError(f"{op!r} is not an anytime subword-pipelined multiply")


def asv_width(op: str) -> int:
    """Lane width of an ``ADD_ASV<L>`` / ``SUB_ASV<L>`` mnemonic."""
    if op not in ASV_OPS:
        raise ValueError(f"{op!r} is not an anytime subword-vectorized op")
    return int(op.split("_ASV")[1])


def cycle_cost(instr: Instruction, *, taken: bool = False) -> int:
    """Cycle cost of ``instr`` on the 2-stage M0+-like pipeline.

    ALU and vector ops take 1 cycle, loads/stores 2 cycles, taken
    branches 2 cycles (pipeline refill) and untaken 1, ``BL`` 3 cycles,
    full multiplies 16 cycles (iterative multiplier) and anytime
    multiplies one cycle per subword bit.
    """
    op = instr.op
    if op in ALU_OPS or op in ASV_OPS or op in ("NOP", "SKM"):
        return 1
    if op in MEM_OPS:
        return 2
    if op == "MUL":
        return MUL_CYCLES
    if op in ASP_OPS or op in ASPS_OPS:
        return asp_width(op)
    if op == "BL":
        return 3
    if op in ("B", "BX") or op in BRANCH_CONDS:
        return 2 if taken else 1
    if op == "HALT":
        return 1
    raise ValueError(f"no cycle cost for {op!r}")


def worst_case_cost(instr: Instruction) -> int:
    """Worst-case cycle cost of ``instr`` (branches assumed taken).

    This is the bound :meth:`repro.sim.cpu.CPU.peek_cost` charges when
    deciding whether an instruction fits the remaining energy budget; it
    ignores data-dependent shortcuts (multiplier memoization, zero
    skipping) and runtime overheads charged through the store hook.
    """
    return cycle_cost(instr, taken=True)
