"""Non-volatile processor (NVP) runtime.

An NVP incorporates non-volatile elements (e.g. FRAM flip-flops)
directly in the pipeline and backs up its state *every cycle* (the
paper implements the backup-every-cycle policy of Ma et al., HPCA'15).
When power fails nothing architectural is lost; when power returns the
core resumes at the exact interrupted PC after a short wake-up. The
price is a per-cycle energy overhead for the NV backup, modelled by
``EnergyModel(backup_overhead=...)`` in the executor's supply (its
value is NVP's row of :mod:`repro.runtime.table`).

With WN skim points, the restore first consults the skim register and
jumps to the skim target if armed.
"""

from __future__ import annotations

from typing import Optional

from ..sim.replay import ReplayRecord
from .base import IntermittentRuntime, ReplayPolicy
from .skim import SkimRegister

#: NVP wake-up latency in cycles. NV processors restore orders of
#: magnitude faster than checkpoint-based systems (ReRAM NVPs report
#: sub-microsecond restore).
DEFAULT_RESTORE_CYCLES = 4


class NVPRuntime(IntermittentRuntime):
    """Backup-every-cycle: state survives outages by construction."""

    name = "nvp"
    volatile_core = False

    def __init__(
        self,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        skim: Optional[SkimRegister] = None,
    ):
        super().__init__(skim)
        self.restore_cycles = restore_cycles

    def _entry_checkpoint(self) -> None:
        """Nothing to record: every cycle is its own checkpoint."""

    def on_tick(self, cycles_executed: int) -> int:
        """No per-tick work; the backup tax is in the energy model."""
        return 0

    def on_outage(self) -> None:
        """All pipeline state is non-volatile; nothing is lost."""

    def on_restore(self) -> int:
        """Wake up in place (or jump to an armed skim point)."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        if self.skim.armed:
            self.cpu.pc = self.skim.consume()
            self.cpu.halted = False
        return self.restore_cycles


class NVPReplayPolicy(ReplayPolicy):
    """NVP replayed over the log: resume in place, never rewind.

    Nothing architectural is lost on an outage, so the cursor simply
    stays put and the stream is consumed strictly in order — the
    cheapest possible replay (one budget bisect per chunk, zero
    re-execution)."""

    name = "nvp"
    volatile_core = False

    def __init__(
        self,
        record: ReplayRecord,
        skim: SkimRegister,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
    ):
        super().__init__(record, skim)
        self.restore_cycles = restore_cycles

    def on_restore(self) -> int:
        """Resume at the exact interrupted position; never rewind."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        self.resume_position = self.cursor
        if self.skim.armed:
            self.skim_redirect = self.skim.consume()
        return self.restore_cycles
