"""Clank-style checkpointing runtime for a volatile processor.

Clank (Hicks, ISCA'17) keeps main memory non-volatile and the core
volatile. Hardware tracks addresses that were *read before being
written* since the last checkpoint; a store to such an address is an
idempotency (WAR) violation — re-executing the region after an outage
would read the new value instead of the original — so Clank checkpoints
the core state *before* letting the store commit. A watchdog bounds
re-execution by forcing periodic checkpoints. After an outage, the core
restores the last checkpoint and re-executes from there.

With WN skim points, the restore first consults the non-volatile skim
register: if armed, the PC is redirected to the skim target and the
current approximate output is accepted as-is.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Set

from ..observability.tracer import TRACER
from ..sim.cpu import CPU
from ..sim.replay import ReplayRecord
from .base import IntermittentRuntime, ReplayPolicy
from .checkpoint import Checkpoint
from .skim import SkimRegister

#: Default backup cost: 18 words (regs + PSR + PC) to FRAM at ~2 cycles
#: per word plus control overhead.
DEFAULT_CHECKPOINT_CYCLES = 60
DEFAULT_RESTORE_CYCLES = 60
#: Watchdog period: one millisecond at 24 MHz.
DEFAULT_WATCHDOG_CYCLES = 24_000


class ClankRuntime(IntermittentRuntime):
    """Write-after-read tracking + watchdog checkpointing."""

    name = "clank"

    def __init__(
        self,
        checkpoint_cycles: int = DEFAULT_CHECKPOINT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        skim: Optional[SkimRegister] = None,
    ):
        super().__init__(skim)
        self.checkpoint_cycles = checkpoint_cycles
        self.restore_cycles = restore_cycles
        self.watchdog_cycles = watchdog_cycles
        self.checkpoint: Optional[Checkpoint] = None
        self._read_first: Set[int] = set()
        self._written: Set[int] = set()
        self._cycles_since_checkpoint = 0

    # -- hook installation -----------------------------------------------------

    def _install_hooks(self, cpu: CPU) -> None:
        cpu.load_hook = self._on_load
        cpu.store_hook = self._on_store

    def _entry_checkpoint(self) -> None:
        self.checkpoint = Checkpoint.from_cpu(self.cpu)

    # -- idempotency tracking ----------------------------------------------------

    def _on_load(self, addr: int, size: int) -> None:
        """Load hook: bytes read before being written become WAR-live."""
        written = self._written
        read_first = self._read_first
        for byte in range(addr, addr + size):
            if byte not in written:
                read_first.add(byte)

    def _on_store(self, addr: int, size: int) -> int:
        """Store hook: checkpoint before a WAR-violating store commits."""
        cost = 0
        read_first = self._read_first
        for byte in range(addr, addr + size):
            if byte in read_first:
                # WAR violation: checkpoint before the store commits so
                # the region up to here stays idempotent.
                self.stats.war_violations += 1
                cost = self._take_checkpoint("war")
                break
        self._written.update(range(addr, addr + size))
        return cost

    def _take_checkpoint(self, cause: str) -> int:
        """Back up the core state; returns the checkpoint cost in cycles."""
        self.checkpoint = Checkpoint.from_cpu(self.cpu)
        self._read_first.clear()
        self._written.clear()
        self._cycles_since_checkpoint = 0
        self.stats.checkpoints += 1
        self.stats.checkpoint_cycles += self.checkpoint_cycles
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint", cause=cause, cost=self.checkpoint_cycles,
                bytes=self.checkpoint.size_words * 4, runtime=self.name,
                engine="interp",
            )
        return self.checkpoint_cycles

    # -- executor callbacks ----------------------------------------------------------

    def on_tick(self, cycles_executed: int) -> int:
        """Advance the watchdog; checkpoint when its period elapses."""
        self._cycles_since_checkpoint += cycles_executed
        if self._cycles_since_checkpoint >= self.watchdog_cycles:
            self.stats.watchdog_checkpoints += 1
            return self._take_checkpoint("watchdog")
        return 0

    def on_outage(self) -> None:
        """Forget all volatile tracking state; NVM alone survives."""
        # The core is volatile: registers, flags, PC and the tracking
        # sets evaporate. Main memory (NVM) keeps its contents; SRAM is
        # cleared by the executor via Memory.power_loss().
        self._read_first.clear()
        self._written.clear()
        self._cycles_since_checkpoint = 0

    def on_restore(self) -> int:
        """Reload the last checkpoint (or jump to an armed skim point)."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        self.checkpoint.apply_to(self.cpu)
        if self.skim.armed:
            # Skim point: decouple restore PC from checkpoint PC.
            self.cpu.pc = self.skim.consume()
        return self.restore_cycles


class ClankReplayPolicy(ReplayPolicy):
    """Clank's WAR tracking and watchdog, replayed over log segments.

    A checkpoint is a stream position. ``ReplayRecord.next_war_before``
    gives the position of the first store after a fresh tracking start
    that hits a read-first byte — exactly where the live runtime's store
    hook checkpoints before the store commits — so a chunk advances in
    whole WAR-free segments (one bisect each) and pays the checkpoint
    cost when it crosses that store. Because every checkpoint lands
    *before* the violating store, every segment a restore rewinds into
    is idempotent, and re-execution consumes the same recorded
    positions and costs as the first pass.

    This walk is the only statement of the WAR rule on the replay
    side. Subclasses add a second event horizon through
    :attr:`output_positions`: stores that commit progress instead of
    meeting the WAR check, at :attr:`commit_cycles` each (Clank itself
    has none).

    :meth:`run_chunk` keeps its walk in locals: the record's columns,
    its WAR memo, the checkpoint position and the index of the next
    output position. It books the chunk's commits into :attr:`stats`
    once, when it returns; the intermittent loop reads the stats only
    between chunks.
    """

    name = "clank"
    #: Sorted stream positions whose store commits progress (see
    #: :class:`~repro.runtime.progress.ProgressReplayPolicy`).
    output_positions: Sequence[int] = ()
    #: Cycles of one progress commit at an output position.
    commit_cycles = 0

    def __init__(
        self,
        record: ReplayRecord,
        skim: SkimRegister,
        checkpoint_cycles: int = DEFAULT_CHECKPOINT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
    ):
        super().__init__(record, skim)
        self.checkpoint_cycles = checkpoint_cycles
        self.restore_cycles = restore_cycles
        self.watchdog_cycles = watchdog_cycles
        self.checkpoint_pos = 0
        self._cycles_since_checkpoint = 0
        #: A WAR checkpoint zeroed the counter mid-chunk; ``on_tick``
        #: then adds the whole chunk (the live runtime does exactly
        #: that: ``_take_checkpoint`` clears the counter, and the
        #: executor's ``on_tick(ran)`` adds all of ``ran`` afterwards,
        #: pre-checkpoint cycles included).
        self._war_in_chunk = False

    def run_chunk(self, budget: int) -> int:
        """Advance in event-free segments, committing at each event: a
        WAR violation (full checkpoint) or an output-position store
        (progress commit)."""
        record = self.record
        cum = record.cum_cost
        pcs = record.pcs
        peek_costs = record.peek_costs
        memo = record._war_memo
        n = record.length
        positions = self.output_positions
        count = len(positions)
        checkpoint_cycles = self.checkpoint_cycles
        commit_cycles = self.commit_cycles
        traced = TRACER.enabled
        cursor = self.cursor
        checkpoint_pos = self.checkpoint_pos
        # The first WAR store from the tracking start, unclamped; None
        # until looked up (a commit moves the start).
        horizon = None
        k = bisect_left(positions, cursor) if count else 0
        out_pos = positions[k] if k < count else n
        consumed = wars = commits = 0
        while cursor < n:
            remaining = budget - consumed
            if remaining <= 0:
                # A commit may overrun the budget (the live path charges
                # it through the store hook, past the commit check);
                # nothing further fits this chunk.
                break
            # Every instruction costs at least one cycle, so this chunk
            # cannot advance past ``limit``; the WAR horizon is clamped
            # there.
            limit = cursor + remaining + 1
            if limit > n:
                limit = n
            if horizon is None:
                horizon = memo.get(checkpoint_pos)
                if horizon is None:
                    horizon = record.next_war_before(checkpoint_pos, n)
            war = horizon if horizon < limit else limit
            event = war if war < out_pos else out_pos
            stop = event if event < limit else limit
            if cursor < stop:
                cost = cum[stop] - cum[cursor]
                if cost < remaining:
                    # The whole segment fits with a cycle to spare:
                    # ``advance`` would bisect to ``stop``, and its
                    # worst-case rule bites only at exactly the budget.
                    j = stop
                else:
                    j, cost = record.advance(cursor, stop, remaining)
                consumed += cost
                if j != cursor:
                    self._cross(cursor, j)
                    cursor = j
                if j < stop:
                    break  # budget exhausted inside the segment
            if cursor >= n or cursor != event:
                break  # halted, or only the horizon stopped the advance
            # The event store at ``cursor``: commits only if its worst-
            # case cost fits, then carries the commit cost on top
            # (charged through the store hook in the live runtime).
            if consumed + peek_costs[pcs[cursor]] > budget:
                break
            if cursor == out_pos:
                cause, commit = "progress", commit_cycles
                commits += 1
                k += 1
                out_pos = positions[k] if k < count else n
            else:
                cause, commit = "war", checkpoint_cycles
                wars += 1
            consumed += (cum[cursor + 1] - cum[cursor]) + commit
            checkpoint_pos = cursor
            horizon = None
            if traced:
                TRACER.emit(
                    "checkpoint", cause=cause, cost=commit,
                    position=cursor, runtime=self.name, engine="replay",
                )
            cursor += 1
        if wars or commits:
            stats = self.stats
            stats.war_violations += wars
            stats.checkpoints += wars + commits
            stats.checkpoint_cycles += (
                wars * checkpoint_cycles + commits * commit_cycles
            )
            if commits:
                extra = stats.extra
                extra["progress_commits"] = (
                    extra.get("progress_commits", 0) + commits
                )
            self.checkpoint_pos = checkpoint_pos
            self._war_in_chunk = True
        self.cursor = cursor
        if cursor > self.max_position:
            self.max_position = cursor
        return consumed

    def on_tick(self, cycles_executed: int) -> int:
        """Advance the watchdog exactly as the live runtime would."""
        if self._war_in_chunk:
            self._war_in_chunk = False
            self._cycles_since_checkpoint = cycles_executed
        else:
            self._cycles_since_checkpoint += cycles_executed
        if self._cycles_since_checkpoint >= self.watchdog_cycles:
            self.stats.watchdog_checkpoints += 1
            self.stats.checkpoints += 1
            self.stats.checkpoint_cycles += self.checkpoint_cycles
            self.checkpoint_pos = self.cursor
            self._cycles_since_checkpoint = 0
            if TRACER.enabled:
                TRACER.emit(
                    "checkpoint", cause="watchdog",
                    cost=self.checkpoint_cycles, position=self.cursor,
                    runtime=self.name, engine="replay",
                )
            return self.checkpoint_cycles
        return 0

    def on_outage(self) -> None:
        """Reset the watchdog; the checkpoint *position* is non-volatile."""
        self._cycles_since_checkpoint = 0
        self._war_in_chunk = False

    def on_restore(self) -> int:
        """Rewind to the checkpoint position (or consume the skim)."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        self.cursor = self.checkpoint_pos
        self.resume_position = self.checkpoint_pos
        if self.skim.armed:
            self.skim_redirect = self.skim.consume()
        return self.restore_cycles
