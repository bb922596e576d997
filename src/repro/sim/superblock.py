"""Superinstruction fusion for the pre-decoded interpreter.

The fast interpreter (:mod:`repro.sim.cpu`) pays one indirect call plus
one loop iteration of dispatch bookkeeping per retired instruction.
For straight-line code — the bulk of every compiled kernel — that
dispatch is pure overhead: the decoded handlers already know their
successor (each stores a bound ``nxt`` into ``cpu.pc`` and never reads
``pc``), so a run of consecutive handlers can be *fused* into a single
Python call that executes all of them back to back.

Spans are derived once per :class:`~repro.isa.program.Program`
(cached on the program, keyed on ``program.instructions`` identity, the
same pattern as :func:`repro.sim.decode.decode_program`):

* **Dispatch spans** — a maximal run of non-control-flow instructions
  starting at ``pc``, optionally closed by one terminal branch/``HALT``.
  Sound because every non-terminal member is straight-line: it writes
  its bound successor index into ``cpu.pc`` and the next member *is*
  that successor. Hooks still fire (the fused call runs the real
  handlers), exceptions propagate mid-block exactly as they would
  mid-loop, and the cycle total is the sum of the members' returns.
  A suffix span exists at every pc so a block is available wherever the
  interpreter happens to land (branch targets, resume points).

``REPRO_SUPERBLOCK=0`` disables fusion (read at CPU construction); the
differential suite runs the grid both ways.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

#: blocks[pc] = (fused_fn, n_instructions, worst_case_cycles) or None
DispatchBlock = Tuple[Callable[[], int], int, int]

#: Fuse only runs of at least this many instructions; shorter runs gain
#: nothing over plain dispatch.
MIN_DISPATCH_SPAN = 2


def superblock_enabled() -> bool:
    """Whether fusion is enabled (``REPRO_SUPERBLOCK`` != "0")."""
    return os.environ.get("REPRO_SUPERBLOCK", "1") != "0"


class SpanTable:
    """Per-program span lengths, shared by every CPU on the program."""

    __slots__ = ("instructions", "dispatch", "any_dispatch")

    def __init__(self, program, metas) -> None:
        self.instructions = program.instructions
        n = len(metas)

        # Control flow ends a dispatch span: branches (B/BL/BX and the
        # conditional mnemonics — RetireMeta.is_branch) and HALT, which
        # sets the halt latch the run loops test between instructions.
        cf = [m.is_branch or m.op == "HALT" for m in metas]
        dispatch: List[int] = [0] * n
        straight = 0  # non-CF run length starting at pc + 1
        for pc in range(n - 1, -1, -1):
            straight = 0 if cf[pc] else straight + 1
            end = pc + straight
            length = straight + (1 if end < n and cf[end] else 0)
            dispatch[pc] = length if length >= MIN_DISPATCH_SPAN else 0
        self.dispatch = dispatch
        self.any_dispatch = any(dispatch)


def span_table(program, metas) -> SpanTable:
    """The (cached) span table for ``program``."""
    cache = getattr(program, "_superblock_cache", None)
    if cache is None or cache.instructions is not program.instructions:
        cache = SpanTable(program, metas)
        program._superblock_cache = cache
    return cache


def _fuse(members: Tuple[Callable[[], int], ...]) -> Callable[[], int]:
    """One call that executes ``members`` in order, returning total cycles."""
    m = len(members)
    if m == 2:
        h0, h1 = members

        def fused():
            return h0() + h1()
    elif m == 3:
        h0, h1, h2 = members

        def fused():
            return h0() + h1() + h2()
    elif m == 4:
        h0, h1, h2, h3 = members

        def fused():
            return h0() + h1() + h2() + h3()
    else:

        def fused():
            total = 0
            for h in members:
                total += h()
            return total
    return fused


def build_superblocks(cpu) -> Optional[List[Optional[DispatchBlock]]]:
    """Dispatch-fusion table for one CPU, or None when fusion is off."""
    if not superblock_enabled():
        return None
    table = span_table(cpu.program, cpu._metas)
    if not table.any_dispatch:
        return None
    handlers = cpu._handlers
    peek = cpu._peek_costs
    blocks: List[Optional[DispatchBlock]] = []
    for pc, length in enumerate(table.dispatch):
        if length:
            members = tuple(handlers[pc:pc + length])
            blocks.append((_fuse(members), length,
                           sum(peek[pc:pc + length])))
        else:
            blocks.append(None)
    return blocks
