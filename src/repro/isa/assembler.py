"""A small two-pass assembler for the WN target ISA.

Accepts the textual syntax used throughout the paper's listings::

    .equ N, 64
    LOOP_MSb:
        LDR   R3, [R0, #0]      @ X[i]
        LDRB  R5, [R2, #1]      @ A[i][MSb]
        MUL_ASP8 R4, R5, #1     @ X += F * A
        ADD   R3, R4
        STR   R3, [R0, #0]
        B     LOOP_MSb
        SKM   END
    END:
        HALT

Comments start with ``@``, ``;`` or ``//``. Labels end with ``:`` and may
share a line with an instruction. ``.equ NAME, value`` defines a constant
usable as ``#NAME``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import (
    ALL_OPS,
    ALU_OPS,
    ASPS_OPS,
    ASP_OPS,
    ASV_OPS,
    BRANCH_CONDS,
    Instruction,
)
from .program import Program


class AssemblerError(ValueError):
    """Raised for malformed assembly input."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_REG_ALIASES = {"SP": 13, "LR": 14, "PC": 15}
_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_COMMENT_RE = re.compile(r"(@|;|//).*$")


def _strip_comment(line: str) -> str:
    return _COMMENT_RE.sub("", line).strip()


def _parse_register(token: str, line: int) -> int:
    token = token.strip().upper()
    if token in _REG_ALIASES:
        return _REG_ALIASES[token]
    if token.startswith("R") and token[1:].isdigit():
        index = int(token[1:])
        if 0 <= index < 16:
            return index
    raise AssemblerError(f"bad register {token!r}", line)


class Assembler:
    """Two-pass assembler producing :class:`~repro.isa.program.Program`."""

    def __init__(self):
        self.constants: Dict[str, int] = {}

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble ``source`` into a :class:`Program` named ``name``.

        Each distinct instruction text (comment and labels stripped) is
        parsed once per call: compiled kernels repeat their lines many
        times over (an SWP build repeats its loop body once per subword
        phase). A repeat gets a new :class:`Instruction` built from the
        first parse's fields, with its own ``text`` and ``line``; no
        instruction object is shared, because the second pass writes
        ``target`` on each. A ``.equ`` changes how later lines parse,
        so every directive clears the memo. A line that fails to parse
        is not memoized, so its error names its own line."""
        instructions: List[Instruction] = []
        labels: Dict[str, int] = {}
        self.constants = {}
        parsed: Dict[str, tuple] = {}

        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = _strip_comment(raw)
            if not text:
                continue
            text = self._take_labels(text, labels, len(instructions), lineno)
            if not text:
                continue
            if text.startswith("."):
                self._directive(text, lineno)
                parsed.clear()
                continue
            fields = parsed.get(text)
            if fields is None:
                instr = self._parse_instruction(text, lineno)
                parsed[text] = (
                    instr.op, instr.rd, instr.rn, instr.rm, instr.imm, instr.label
                )
            else:
                instr = Instruction(*fields, text=text, line=lineno)
            instructions.append(instr)

        self._resolve_labels(instructions, labels)
        return Program(instructions, labels, dict(self.constants), name=name)

    # -- first pass helpers -------------------------------------------------

    def _take_labels(
        self, text: str, labels: Dict[str, int], index: int, lineno: int
    ) -> str:
        while ":" in text:
            head, _, rest = text.partition(":")
            head = head.strip()
            if not _LABEL_RE.match(head):
                # Not a label (e.g. no labels on this line) - leave as-is.
                return text
            if head in labels:
                raise AssemblerError(f"duplicate label {head!r}", lineno)
            labels[head] = index
            text = rest.strip()
        return text

    def _directive(self, text: str, lineno: int) -> None:
        parts = text.split(None, 1)
        if parts[0].lower() == ".equ":
            if len(parts) < 2 or "," not in parts[1]:
                raise AssemblerError(".equ requires NAME, value", lineno)
            name, _, value = parts[1].partition(",")
            self.constants[name.strip()] = self._parse_int(value.strip(), lineno)
        elif parts[0].lower() in (".text", ".data", ".global", ".globl"):
            pass  # accepted and ignored; we assemble a single flat section
        else:
            raise AssemblerError(f"unknown directive {parts[0]!r}", lineno)

    def _parse_int(self, token: str, lineno: int) -> int:
        token = token.strip()
        if token in self.constants:
            return self.constants[token]
        try:
            return int(token, 0)
        except ValueError as exc:
            raise AssemblerError(f"bad integer {token!r}", lineno) from exc

    def _parse_immediate(self, token: str, lineno: int) -> int:
        token = token.strip()
        if not token.startswith("#"):
            raise AssemblerError(f"expected immediate, got {token!r}", lineno)
        return self._parse_int(token[1:], lineno)

    def _split_operands(self, text: str) -> List[str]:
        """Split on commas that are not inside a memory operand ``[...]``."""
        operands: List[str] = []
        depth = 0
        current = ""
        for ch in text:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == "," and depth == 0:
                operands.append(current.strip())
                current = ""
            else:
                current += ch
        if current.strip():
            operands.append(current.strip())
        return operands

    def _parse_mem_operand(
        self, token: str, lineno: int
    ) -> Tuple[int, Optional[int], int]:
        """Parse ``[Rn]``, ``[Rn, #imm]`` or ``[Rn, Rm]``.

        Returns ``(rn, rm, imm)`` where exactly one of ``rm``/``imm``
        carries the offset (``rm is None`` for immediate form).
        """
        token = token.strip()
        if not (token.startswith("[") and token.endswith("]")):
            raise AssemblerError(f"expected memory operand, got {token!r}", lineno)
        inner = token[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        rn = _parse_register(parts[0], lineno)
        if len(parts) == 1:
            return rn, None, 0
        if len(parts) != 2:
            raise AssemblerError(f"bad memory operand {token!r}", lineno)
        if parts[1].startswith("#"):
            return rn, None, self._parse_immediate(parts[1], lineno)
        return rn, _parse_register(parts[1], lineno), 0

    # -- instruction parsing ------------------------------------------------

    def _parse_instruction(self, text: str, lineno: int) -> Instruction:
        parts = text.split(None, 1)
        op = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        operands = self._split_operands(rest)

        if op not in ALL_OPS:
            raise AssemblerError(f"unknown opcode {op!r}", lineno)

        builder = {
            "NOP": self._build_noarg,
            "HALT": self._build_noarg,
            "B": self._build_branch,
            "BL": self._build_branch,
            "SKM": self._build_branch,
            "BX": self._build_bx,
        }
        if op in BRANCH_CONDS:
            return self._build_branch(op, operands, text, lineno)
        if op in builder:
            return builder[op](op, operands, text, lineno)
        if op in ("LDR", "LDRB", "LDRH", "STR", "STRB", "STRH"):
            return self._build_mem(op, operands, text, lineno)
        if op == "MUL":
            return self._build_two_reg(op, operands, text, lineno)
        if op in ASP_OPS or op in ASPS_OPS:
            return self._build_asp(op, operands, text, lineno)
        if op in ASV_OPS:
            return self._build_two_reg(op, operands, text, lineno)
        if op in ALU_OPS:
            return self._build_alu(op, operands, text, lineno)
        raise AssemblerError(f"cannot parse {op!r}", lineno)  # pragma: no cover

    def _build_noarg(self, op, operands, text, lineno) -> Instruction:
        if operands:
            raise AssemblerError(f"{op} takes no operands", lineno)
        return Instruction(op, text=text, line=lineno)

    def _build_branch(self, op, operands, text, lineno) -> Instruction:
        if len(operands) != 1 or not _LABEL_RE.match(operands[0]):
            raise AssemblerError(f"{op} requires a label operand", lineno)
        return Instruction(op, label=operands[0], text=text, line=lineno)

    def _build_bx(self, op, operands, text, lineno) -> Instruction:
        if len(operands) != 1:
            raise AssemblerError("BX requires one register", lineno)
        return Instruction(op, rm=_parse_register(operands[0], lineno), text=text, line=lineno)

    def _build_mem(self, op, operands, text, lineno) -> Instruction:
        if len(operands) != 2:
            raise AssemblerError(f"{op} requires Rd, [mem]", lineno)
        rd = _parse_register(operands[0], lineno)
        rn, rm, imm = self._parse_mem_operand(operands[1], lineno)
        return Instruction(op, rd=rd, rn=rn, rm=rm, imm=imm, text=text, line=lineno)

    def _build_two_reg(self, op, operands, text, lineno) -> Instruction:
        if len(operands) != 2:
            raise AssemblerError(f"{op} requires Rd, Rm", lineno)
        rd = _parse_register(operands[0], lineno)
        rm = _parse_register(operands[1], lineno)
        return Instruction(op, rd=rd, rn=rd, rm=rm, text=text, line=lineno)

    def _build_asp(self, op, operands, text, lineno) -> Instruction:
        if len(operands) != 3:
            raise AssemblerError(f"{op} requires Rd, Rm, #pos", lineno)
        rd = _parse_register(operands[0], lineno)
        rm = _parse_register(operands[1], lineno)
        pos = self._parse_immediate(operands[2], lineno)
        if pos < 0:
            raise AssemblerError("subword position must be non-negative", lineno)
        return Instruction(op, rd=rd, rn=rd, rm=rm, imm=pos, text=text, line=lineno)

    def _build_alu(self, op, operands, text, lineno) -> Instruction:
        compare_ops = ("CMP", "CMN", "TST")
        if op in compare_ops:
            if len(operands) != 2:
                raise AssemblerError(f"{op} requires two operands", lineno)
            rn = _parse_register(operands[0], lineno)
            if operands[1].startswith("#"):
                return Instruction(
                    op, rn=rn, imm=self._parse_immediate(operands[1], lineno),
                    text=text, line=lineno,
                )
            return Instruction(
                op, rn=rn, rm=_parse_register(operands[1], lineno),
                text=text, line=lineno,
            )

        unary_ops = ("MOV", "MVN", "NEG", "SXTB", "SXTH", "UXTB", "UXTH")
        if len(operands) == 2:
            rd = _parse_register(operands[0], lineno)
            if operands[1].startswith("#"):
                rn = None if op in unary_ops else rd
                return Instruction(
                    op, rd=rd, rn=rn, imm=self._parse_immediate(operands[1], lineno),
                    text=text, line=lineno,
                )
            rm = _parse_register(operands[1], lineno)
            # MOV/MVN and extend ops are genuinely unary: source is rm only.
            if op in unary_ops:
                return Instruction(op, rd=rd, rm=rm, text=text, line=lineno)
            return Instruction(op, rd=rd, rn=rd, rm=rm, text=text, line=lineno)

        if len(operands) == 3:
            rd = _parse_register(operands[0], lineno)
            rn = _parse_register(operands[1], lineno)
            if operands[2].startswith("#"):
                return Instruction(
                    op, rd=rd, rn=rn, imm=self._parse_immediate(operands[2], lineno),
                    text=text, line=lineno,
                )
            return Instruction(
                op, rd=rd, rn=rn, rm=_parse_register(operands[2], lineno),
                text=text, line=lineno,
            )

        raise AssemblerError(f"{op} requires 2 or 3 operands", lineno)

    # -- second pass --------------------------------------------------------

    def _resolve_labels(
        self, instructions: List[Instruction], labels: Dict[str, int]
    ) -> None:
        for instr in instructions:
            if instr.label is not None:
                if instr.label not in labels:
                    raise AssemblerError(
                        f"undefined label {instr.label!r}", instr.line
                    )
                instr.target = labels[instr.label]


def assemble(source: str, name: str = "program") -> Program:
    """Convenience wrapper: assemble ``source`` into a :class:`Program`."""
    return Assembler().assemble(source, name=name)
