"""Cycle-level CPU model of the WN-extended M0+-like core.

The core mirrors the paper's simulation target: a 2-stage pipeline with
no caches and no branch predictor, single-cycle ALU ops, 2-cycle
loads/stores, 2-cycle taken branches and an iterative multiplier
(16 cycles for a full 16x16 product). The What's Next extensions —
``MUL_ASP<B>``, ``ADD_ASV<L>``/``SUB_ASV<L>`` and ``SKM`` — execute on
the :class:`~repro.sim.multiplier.Multiplier` and
:class:`~repro.sim.adder.SubwordAdder` functional units.

This is the *fast* interpreter: at construction every instruction is
decoded once into a specialized handler (see :mod:`repro.sim.decode`),
per-instruction worst-case costs are pre-computed for ``peek_cost`` /
``run_cycles``, and statistics are kept as batched per-instruction
retire counters that materialize into :class:`ExecutionStats` only when
``cpu.stats`` is read. The original string-dispatch interpreter lives
on unchanged as :class:`repro.sim.reference.ReferenceCPU` — the golden
model the fast interpreter is differentially tested against
(``tests/test_fast_interpreter.py``).

The CPU exposes three hooks used by the intermittent runtimes:

* ``load_hook(addr, size)`` — called before each load commits.
* ``store_hook(addr, size)`` — called before each store commits; may
  return extra cycles to charge (Clank charges a checkpoint here when a
  store would violate idempotency).
* ``skim_hook(target)`` — called when a ``SKM`` retires; the runtime
  records the target in the non-volatile skim register.

Hooks are read at execution time, so they can be installed or replaced
at any point after construction (the runtimes' ``attach`` does exactly
that).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..isa.program import Program
from ..isa.registers import Flags, RegisterFile
from .adder import SubwordAdder
from .decode import bind_handlers, decode_program
from .memory import Memory
from .multiplier import Multiplier
from .stats import ExecutionStats


class CpuFault(Exception):
    """Raised on an architectural error (bad PC, running while halted)."""


class CPU:
    """Pre-decoded interpreter for one program on one memory."""

    # Slotted so the dispatch loop's pc/halted reads and the handlers'
    # pc stores skip the instance dict.
    __slots__ = (
        "program",
        "memory",
        "multiplier",
        "adder",
        "regs",
        "flags",
        "pc",
        "halted",
        "_stats",
        "load_hook",
        "store_hook",
        "skim_hook",
        "_instructions",
        "_retire_counts",
        "_taken_counts",
        "_extra_cycles",
        "_metas",
        "_peek_costs",
        "_handlers",
    )

    #: Subclasses that interpret :class:`Instruction` objects directly
    #: (the golden model) set this to False and skip the decode pass.
    predecode = True

    def __init__(
        self,
        program: Program,
        memory: Memory,
        multiplier: Optional[Multiplier] = None,
        adder: Optional[SubwordAdder] = None,
    ):
        self.program = program
        self.memory = memory
        self.multiplier = multiplier or Multiplier()
        self.adder = adder or SubwordAdder()
        self.regs = RegisterFile()
        self.flags = Flags()
        self.pc = 0
        self.halted = False
        self._stats = ExecutionStats()

        self.load_hook: Optional[Callable[[int, int], None]] = None
        self.store_hook: Optional[Callable[[int, int], int]] = None
        self.skim_hook: Optional[Callable[[int], None]] = None

        self._instructions = program.instructions
        self._retire_counts: Optional[List[int]] = None
        self._taken_counts: Optional[List[int]] = None
        self._extra_cycles = 0
        if self.predecode:
            decoded = decode_program(program)
            self._metas = decoded.metas
            self._peek_costs = decoded.peek_costs
            self._retire_counts = [0] * len(self._instructions)
            self._taken_counts = [0] * len(self._instructions)
            self._handlers = bind_handlers(self)

    # -- lifetime ---------------------------------------------------------------

    def release(self) -> None:
        """Drop the handler table and the hooks, once the owner is done
        running this CPU; its memory, registers and statistics stay
        readable.

        Each handler holds its CPU as a keyword default and a runtime's
        hooks hold the runtime, which holds the CPU, so an unreleased
        CPU is cyclic garbage: it keeps its region buffers until a full
        collection. A released one is freed as soon as its owner drops
        it. It cannot run again. A CPU that binds no handlers
        (``predecode`` False) only loses its hooks."""
        self._handlers = ()
        self.load_hook = None
        self.store_hook = None
        self.skim_hook = None

    def __enter__(self) -> "CPU":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    # -- statistics ------------------------------------------------------------

    @property
    def stats(self) -> ExecutionStats:
        """Execution statistics (materialized from batched counters)."""
        if self._retire_counts is not None:
            self._flush_stats()
        return self._stats

    @stats.setter
    def stats(self, value: ExecutionStats) -> None:
        """Replace the statistics object (the batched counters keep
        flushing into the new one)."""
        self._stats = value

    def _flush_stats(self) -> None:
        self._stats.absorb_counts(
            self._metas, self._retire_counts, self._taken_counts,
            self._extra_cycles,
        )
        self._extra_cycles = 0

    # -- architectural state ---------------------------------------------------

    def snapshot(self) -> Tuple[List[int], tuple, int]:
        """Capture (registers, flags, pc) — the volatile core state."""
        return (self.regs.snapshot(), self.flags.snapshot(), self.pc)

    def restore(self, snap: Tuple[List[int], tuple, int]) -> None:
        """Load a :meth:`snapshot` back and clear the halt latch."""
        regs, flags, pc = snap
        self.regs.restore(regs)
        self.flags.restore(flags)
        self.pc = pc
        self.halted = False

    def reset(self, pc: int = 0) -> None:
        """Power-on state: zero registers/flags, jump to ``pc``."""
        # In place: the decoded handlers keep their bindings valid.
        self.regs.reset()
        self.flags.reset()
        self.pc = pc
        self.halted = False

    # -- execution --------------------------------------------------------------

    def peek_cost(self) -> int:
        """Worst-case cycle cost of the next instruction.

        Used by the intermittent executor to decide whether the next
        instruction fits in the remaining energy budget (an instruction
        that would outlive the supply does not commit). Pre-computed at
        decode time; data-dependent shortcuts (multiplier memoization,
        zero skipping) may make the instruction cheaper, never costlier.
        """
        if self.halted:
            return 0
        return self._peek_costs[self.pc]

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed."""
        if self.halted:
            raise CpuFault("CPU is halted")
        pc = self.pc
        if not 0 <= pc < len(self._handlers):
            raise CpuFault(f"PC out of range: {pc}")
        return self._handlers[pc]()

    # -- run loops -----------------------------------------------------------------

    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until HALT; returns total cycles. Raises if the limit trips.

        The fast loop discards the handlers' cycle returns and recovers
        the total from the statistics delta instead: dropping the
        per-iteration accumulate-and-count bookkeeping is worth ~2x in
        dispatch throughput, and ``absorb_counts`` reconstructs the
        exact same cycle total the per-step returns would have summed to.
        """
        handlers = self._handlers
        self._flush_stats()
        start_cycles = self._stats.cycles
        try:
            for _ in range(max_instructions + 1):
                if self.halted:
                    break
                handlers[self.pc]()
            else:
                raise CpuFault("instruction limit exceeded (runaway program?)")
        except IndexError:
            raise CpuFault(f"PC out of range: {self.pc}") from None
        self._flush_stats()
        return self._stats.cycles - start_cycles

    def run_cycles(self, budget: int) -> int:
        """Run until the cycle budget is exhausted or the program halts.

        An instruction only commits if its worst-case cost fits in the
        remaining budget (power dies mid-instruction otherwise). Returns
        the cycles actually consumed (<= budget, plus any runtime
        overhead the store hook charges on the committing instruction).
        """
        handlers = self._handlers
        costs = self._peek_costs
        consumed = 0
        while not self.halted:
            pc = self.pc
            cost = costs[pc]
            if consumed + cost > budget:
                break
            consumed += handlers[pc]()
        return consumed
