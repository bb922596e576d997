"""Common interface for intermittent-computing runtimes.

A runtime owns the policy that preserves forward progress across power
outages: Clank-style checkpointing for a conventional volatile core, or
backup-every-cycle for a non-volatile processor. Each runtime comes as
a pair: an :class:`IntermittentRuntime` over a live CPU and a
:class:`ReplayPolicy` over a recorded commit log.

:class:`ReplayPolicy` is also the surface of the one intermittent loop
(:func:`repro.runtime.executor._intermittent_loop`) that both engines
run. A replay policy is that surface's lane side; the
:class:`~repro.runtime.executor.IntermittentExecutor` is its live side,
driving an :class:`IntermittentRuntime` and its CPU.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from ..sim.cpu import CPU
from ..sim.replay import ReplayRecord
from .skim import SkimRegister


@dataclass
class RuntimeStats:
    """Overhead accounting common to all runtimes."""

    checkpoints: int = 0
    checkpoint_cycles: int = 0
    restores: int = 0
    restore_cycles: int = 0
    war_violations: int = 0
    watchdog_checkpoints: int = 0
    extra: dict = field(default_factory=dict)


class IntermittentRuntime(ABC):
    """Forward-progress policy plugged into the executor."""

    name = "abstract"
    #: Checkpoint commits are atomic (double-buffered pointer flip): a
    #: commit interrupted by power failure leaves the *old* checkpoint
    #: intact. The chaos engine's torn-commit injector consults this;
    #: only deliberately broken mutants set it False.
    atomic_commit = True
    #: The core loses its registers (and volatile memory) on an outage,
    #: so uncommitted progress is discarded; False for a core that
    #: backs up every cycle (NVP).
    volatile_core = True

    def __init__(self, skim: SkimRegister = None):
        self.skim = skim if skim is not None else SkimRegister()
        self.stats = RuntimeStats()
        self.cpu: CPU = None

    def attach(self, cpu: CPU) -> None:
        """Bind to a CPU: install hooks and take the entry checkpoint."""
        self.cpu = cpu
        cpu.skim_hook = self.skim.set
        self._install_hooks(cpu)
        self._entry_checkpoint()

    def _install_hooks(self, cpu: CPU) -> None:
        """Subclasses install load/store hooks here (default: none)."""

    @abstractmethod
    def _entry_checkpoint(self) -> None:
        """Record whatever initial state a cold boot restores to."""

    @abstractmethod
    def on_tick(self, cycles_executed: int) -> int:
        """Called after each ON millisecond with the cycles executed.

        Returns overhead cycles to charge (e.g. a watchdog checkpoint)."""

    @abstractmethod
    def on_outage(self) -> None:
        """Power was lost: discard volatile state."""

    @abstractmethod
    def on_restore(self) -> int:
        """Power returned: rebuild state, apply skim semantics.

        Returns the restore cost in cycles."""


class ReplayPolicy:
    """A runtime's forward-progress policy expressed over log segments.

    The replay twin of :class:`IntermittentRuntime`, and the surface the
    intermittent loop drives on both engines: ``run_chunk``, ``halted``,
    ``on_tick``, ``on_restore`` and ``on_outage`` (plus ``on_low_voltage``
    and ``snapshot_cycles`` for a just-in-time runtime), the
    :meth:`restore_signature` of the livelock guard, the
    :meth:`location` of a stall, and the :attr:`engine` label.
    Architectural state is a *position* in a recorded commit log
    (:class:`~repro.sim.replay.ReplayRecord`) instead of a live CPU:
    restoring a checkpoint is rewinding the position, and executing a
    chunk is one budget bisect over the log's cost prefix sums. Each
    runtime module pairs its live runtime with a replay policy subclass.
    """

    name = "abstract"
    #: Chunk interval for the loop's inner chunks (Clank's watchdog).
    watchdog_cycles: Optional[int] = None
    #: As :attr:`IntermittentRuntime.volatile_core`.
    volatile_core = True
    #: Label of the loop's ``restore`` and ``outage`` trace events.
    engine = "replay"
    #: The post-skim suffix was never recorded, so the loop stops at the
    #: restore that consumes the skim register; the caller finishes the
    #: run on a live CPU.
    follows_skim = False

    def __init__(self, record: ReplayRecord, skim: SkimRegister):
        self.record = record
        self.skim = skim
        self.stats = RuntimeStats()
        self.cursor = 0
        #: Furthest stream position ever executed: the store log up to
        #: here is in memory (re-executed stores rewrite identical
        #: values, so the NVM image is a function of this watermark).
        self.max_position = 0
        #: Position the last restore resumed from (the loop's livelock
        #: signature, :meth:`restore_signature`).
        self.resume_position = 0
        #: Target consumed from the skim register by the last restore.
        self.skim_redirect: Optional[int] = None

    @property
    def halted(self) -> bool:
        """True once the cursor has consumed the whole recorded stream."""
        return self.cursor >= self.record.length

    def _cross(self, start: int, end: int) -> None:
        """Apply skim arm events of fast-forwarded positions [start, end)."""
        count, target = self.record.skim_events_in(start, end)
        if count:
            self.skim.arm_from_log(target, count)

    def run_chunk(self, budget: int) -> int:
        """Advance the cursor by up to ``budget`` cycles; returns cycles
        consumed. The default covers runtimes without mid-stream
        events (NVP, Hibernus); Clank overrides to insert WAR
        checkpoints."""
        record = self.record
        cursor = self.cursor
        j, cost = record.advance(cursor, record.length, budget)
        if j != cursor:
            self._cross(cursor, j)
            self.cursor = j
            if j > self.max_position:
                self.max_position = j
        return cost

    def on_tick(self, cycles_executed: int) -> int:
        """Per-tick overhead in cycles (default: none)."""
        return 0

    def on_outage(self) -> None:
        """Power was lost: discard whatever state is volatile."""

    def on_restore(self) -> int:
        """Power returned: rewind/resume; returns the restore cost."""
        raise NotImplementedError

    def restore_signature(self) -> int:
        """The state the last restore resumed: its stream position (the
        stream is deterministic, so equal positions mean equal state)."""
        return self.resume_position

    def location(self) -> dict:
        """Where a stall happened: the stream position."""
        return {"position": self.cursor}
