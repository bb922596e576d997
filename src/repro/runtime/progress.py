"""Progress-embedding resume runtime for anytime NN inference.

NodPA-style loop-index/progress-embedding resume (see PAPERS.md): for
kernels whose forward progress is *visible in their output arrays* —
the NN inference family stores one feature/logit per inner-loop trip —
a store into an output slot is itself a progress marker. The runtime
commits a cheap **progress checkpoint** at every such store: only the
core's registers and the delta the store represents go to NVM (the
output element was being written anyway), so the commit costs a small
constant (:data:`DEFAULT_COMMIT_CYCLES`) instead of Clank's full
18-word backup. Stores *outside* the output arenas fall back to
Clank's write-after-read tracking, and the inherited watchdog still
bounds re-execution in stretches with no output stores.

Because a progress commit lands *before* the output store retires
(exactly where Clank checkpoints before a WAR-violating store), every
resume segment stays idempotent; re-execution rewrites the same output
element with the same value. The replay twin
(:class:`ProgressReplayPolicy`) advances in segments bounded by *two*
event kinds — the next WAR violation and the next recorded
output-array store — and charges each event its live cost, so replayed
samples are bit-exact against the interpreter path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..observability.tracer import TRACER
from ..sim.replay import ReplayRecord
from .checkpoint import Checkpoint
from .clank import (
    DEFAULT_CHECKPOINT_CYCLES,
    DEFAULT_RESTORE_CYCLES,
    DEFAULT_WATCHDOG_CYCLES,
    ClankReplayPolicy,
    ClankRuntime,
)
from .skim import SkimRegister

#: Progress-commit cost: the progress marker (output index) and the
#: register file's delta ride the output store's own NVM write burst —
#: a few extra words, not a full 18-word checkpoint.
DEFAULT_COMMIT_CYCLES = 12


def output_ranges_of(kernel) -> List[Tuple[int, int]]:
    """Byte ranges ``[base, end)`` of a compiled kernel's output slots.

    ``kernel`` is an :class:`~repro.core.anytime.AnytimeKernel` (duck-
    typed: anything with ``compiled.slots`` and ``kernel.outputs()``).
    """
    ranges = []
    for array in kernel.kernel.outputs():
        slot = kernel.compiled.slots[array.name]
        ranges.append((slot.address, slot.address + slot.size_bytes))
    return ranges


def output_store_positions(
    record: ReplayRecord, ranges: Sequence[Tuple[int, int]]
) -> List[int]:
    """Sorted stream positions whose store lands inside an output slot.

    One pass over the record's store log, memoized on the record per
    ranges tuple — every replay lane of the configuration shares the
    verdict."""
    key = tuple(ranges)
    memo = record._progress_memo
    positions = memo.get(key)
    if positions is None:
        positions = []
        store_pos = record.store_pos
        store_addr = record.store_addr
        store_size = record.store_size
        for i in range(len(store_pos)):
            addr = store_addr[i]
            end = addr + store_size[i]
            for base, limit in ranges:
                if base <= addr and end <= limit:
                    positions.append(store_pos[i])
                    break
        memo[key] = positions
    return positions


class ProgressRuntime(ClankRuntime):
    """Clank WAR tracking + cheap commits at output-array stores."""

    name = "progress"

    def __init__(
        self,
        output_ranges: Sequence[Tuple[int, int]],
        checkpoint_cycles: int = DEFAULT_CHECKPOINT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        commit_cycles: int = DEFAULT_COMMIT_CYCLES,
        skim: Optional[SkimRegister] = None,
    ):
        super().__init__(
            checkpoint_cycles=checkpoint_cycles,
            restore_cycles=restore_cycles,
            watchdog_cycles=watchdog_cycles,
            skim=skim,
        )
        self.output_ranges = list(output_ranges)
        self.commit_cycles = commit_cycles

    def _on_store(self, addr: int, size: int) -> int:
        """Store hook: progress-commit before an output store retires.

        Output stores take the cheap commit unconditionally (it clears
        the WAR tracking sets, so the store can never violate anything);
        all other stores get Clank's WAR treatment."""
        end = addr + size
        for base, limit in self.output_ranges:
            if base <= addr and end <= limit:
                cost = self._take_checkpoint("progress")
                self._written.update(range(addr, end))
                return cost
        return super()._on_store(addr, size)

    def _take_checkpoint(self, cause: str) -> int:
        """Full backup for WAR/watchdog causes; delta commit for progress.

        Both go through this one method so the chaos controller's
        torn-commit wrapper (which replaces it on the instance) covers
        progress commits too."""
        if cause != "progress":
            return super()._take_checkpoint(cause)
        self.checkpoint = Checkpoint.from_cpu(self.cpu)
        self._read_first.clear()
        self._written.clear()
        self._cycles_since_checkpoint = 0
        self.stats.checkpoints += 1
        self.stats.checkpoint_cycles += self.commit_cycles
        extra = self.stats.extra
        extra["progress_commits"] = extra.get("progress_commits", 0) + 1
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint", cause="progress", cost=self.commit_cycles,
                bytes=self.checkpoint.size_words * 4, runtime=self.name,
                engine="interp",
            )
        return self.commit_cycles


class ProgressReplayPolicy(ClankReplayPolicy):
    """The progress runtime's forward-progress policy over log segments.

    Extends Clank's segmented walk with a second event horizon: the
    next recorded store into an output slot. A segment stops at
    whichever event comes first; an output store charges the cheap
    commit cost, a WAR store the full checkpoint cost. Both clear the
    tracking start (``checkpoint_pos``), so the WAR scan basis matches
    the live runtime's clear-then-write bookkeeping exactly — and
    since every advance is capped at the next output store, the cursor
    never crosses an output position without committing there, keeping
    the segment between ``checkpoint_pos`` and the cursor free of
    progress events (the invariant the scan equivalence rests on).
    """

    name = "progress"

    def __init__(
        self,
        record: ReplayRecord,
        skim: SkimRegister,
        output_positions: Sequence[int],
        checkpoint_cycles: int = DEFAULT_CHECKPOINT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        commit_cycles: int = DEFAULT_COMMIT_CYCLES,
    ):
        super().__init__(
            record,
            skim,
            checkpoint_cycles=checkpoint_cycles,
            restore_cycles=restore_cycles,
            watchdog_cycles=watchdog_cycles,
        )
        self.output_positions = list(output_positions)
        self.commit_cycles = commit_cycles

    def _progress_commit(self) -> int:
        """Book one cheap progress commit; returns its cost."""
        extra = self.stats.extra
        extra["progress_commits"] = extra.get("progress_commits", 0) + 1
        return self.commit_cycles
