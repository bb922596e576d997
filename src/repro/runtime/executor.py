"""The intermittent executor: CPU x power supply x runtime.

Drives one program to completion under a harvested-power supply,
invoking the runtime's checkpoint/restore policy around every power
outage. Time advances in 1 ms ticks; within each ON tick the CPU runs
as many cycles as the stored energy allows (up to the clock limit).

The result distinguishes *completing precisely* (the program ran to
``HALT`` through all subword passes) from *completing via a skim point*
(a power outage hit while the skim register was armed, so the restore
jumped to the skim target and the approximate output was accepted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ProgressStall, SampleTimeout
from ..observability.ledger import ProgressLedger
from ..observability.tracer import TRACER
from ..power.supply import PowerSupply
from ..sim.cpu import CPU
from .base import IntermittentRuntime, RuntimeStats

#: Consecutive identical-state restores before declaring a livelock.
STALLED_RESTORE_LIMIT = 64

#: Consecutive ON ticks with zero cycles executed before declaring a
#: stall. A tick can legitimately run zero cycles while the capacitor
#: accumulates enough charge for the next (expensive) instruction, but
#: thousands in a row mean the supply tops out below that instruction's
#: cost — the Hibernus/NVP knife-edge livelock that previously hung
#: until ``max_wall_ms``.
IDLE_TICK_LIMIT = 5_000

#: Wall-clock deadline (``time.monotonic()`` seconds) the executors
#: check once per simulated tick; ``None`` disables the check. Set by
#: the experiment harness around each sample when the
#: ``REPRO_SAMPLE_TIMEOUT`` knob is armed (see
#: :func:`set_sample_deadline`).
_SAMPLE_DEADLINE: Optional[float] = None


def set_sample_deadline(deadline: Optional[float]) -> None:
    """Arm (or clear, with ``None``) the cooperative per-sample
    wall-clock deadline. Both the live and replay executors poll it once
    per simulated millisecond and raise :class:`~repro.errors.SampleTimeout`
    when it passes — so a pathological sample dies with a typed error
    instead of hanging its worker process."""
    global _SAMPLE_DEADLINE
    _SAMPLE_DEADLINE = deadline


def sample_deadline_armed() -> bool:
    """True while a per-sample deadline is armed (read once per replay
    group, so the lane walk polls only when it must)."""
    return _SAMPLE_DEADLINE is not None


def check_sample_deadline(tick: int) -> None:
    """Raise :class:`~repro.errors.SampleTimeout` if the armed deadline
    passed; no-op (one ``is None`` test) when no deadline is armed."""
    if _SAMPLE_DEADLINE is not None and time.monotonic() > _SAMPLE_DEADLINE:
        raise SampleTimeout(
            "sample exceeded its REPRO_SAMPLE_TIMEOUT wall-clock budget",
            tick=tick,
        )


@dataclass
class RunResult:
    """Outcome of one intermittent execution."""

    completed: bool
    skim_taken: bool
    timed_out: bool
    wall_ms: int
    on_ms: int
    off_ms: int
    active_cycles: int
    outages: int
    runtime_stats: RuntimeStats = field(default_factory=RuntimeStats)
    #: Forward-progress attribution; bucket sum == ``active_cycles``.
    ledger: ProgressLedger = field(default_factory=ProgressLedger)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time to finish, in seconds."""
        return self.wall_ms / 1000.0


class IntermittentExecutor:
    """Runs one CPU under a power supply with a forward-progress runtime."""

    def __init__(self, cpu: CPU, supply: PowerSupply, runtime: IntermittentRuntime):
        self.cpu = cpu
        self.supply = supply
        self.runtime = runtime
        runtime.attach(cpu)
        #: True if the core loses register state on outage (Clank-style).
        self.volatile_core = runtime.volatile_core

    def run(
        self,
        max_wall_ms: int = 10_000_000,
        carry_overhead: int = 0,
        ledger: Optional[ProgressLedger] = None,
    ) -> RunResult:
        """Run to halt, timeout or exhaustion.

        ``carry_overhead`` pre-loads the pending-overhead account and
        ``ledger`` continues an existing attribution: the replay
        engine's skim handoff passes the restore cost of the restore
        that consumed the skim register (which happened on the replay
        side, before this executor took over) and its own ledger, whose
        re-execution debt this run then repays."""
        cpu = self.cpu
        supply = self.supply
        runtime = self.runtime

        start_tick = supply.tick
        start_cycles = supply.total_cycles
        start_on = supply.total_on_ms
        start_off = supply.total_off_ms
        start_outages = supply.outages
        skim_taken = False
        pending_overhead = carry_overhead
        # Attribution for the pending account: carry_overhead is the
        # unpaid remainder of the replay-side restore that consumed the
        # skim register, so the account opens as restore cost.
        pending_kind = "restore"
        if ledger is None:
            ledger = ProgressLedger()
        timed_out = False
        stalled_restores = 0
        idle_ticks = 0
        last_restore_signature = None

        while not cpu.halted:
            if supply.tick - start_tick > max_wall_ms:
                timed_out = True
                break
            check_sample_deadline(supply.tick)

            if not supply.on:
                supply.charge_until_on()
                armed_before = runtime.skim.armed
                pending_overhead = runtime.on_restore()
                pending_kind = "restore"
                took_skim = armed_before and not runtime.skim.armed
                if took_skim:
                    skim_taken = True
                if TRACER.enabled:
                    TRACER.emit(
                        "restore", tick=supply.tick, cost=pending_overhead,
                        runtime=runtime.name, skim=took_skim, engine="interp",
                    )
                # Forward-progress guard: restoring to the *identical*
                # architectural state many times in a row means no
                # durable progress survives the outages (the per-charge
                # budget cannot cover restore/checkpoint overheads plus
                # one checkpoint interval). Fail with a diagnosis
                # instead of replaying forever.
                signature = (cpu.pc, tuple(cpu.regs.regs))
                if signature == last_restore_signature:
                    stalled_restores += 1
                    if stalled_restores >= STALLED_RESTORE_LIMIT:
                        raise ProgressStall(
                            "forward-progress livelock: 64 consecutive "
                            "restores resumed from the same state; no "
                            "progress survives the power cycles. Enlarge "
                            "the storage capacitor or shorten the "
                            "runtime's watchdog/checkpoint period.",
                            pc=cpu.pc, tick=supply.tick, runtime=runtime.name,
                        )
                else:
                    stalled_restores = 0
                    last_restore_signature = signature

            budget = supply.begin_tick()
            used = 0
            if pending_overhead:
                paid = min(pending_overhead, budget)
                pending_overhead -= paid
                used = paid
                ledger.overhead(pending_kind, paid)

            # Just-in-time (Hibernus-style) runtimes snapshot right
            # before the brown-out: on the final tick of a power cycle,
            # reserve the snapshot's energy up front and spend it after
            # the program's share of the tick.
            jit_snapshot = getattr(runtime, "on_low_voltage", None)
            reserved = 0
            if jit_snapshot is not None and supply.tick_energy_limited:
                reserved = min(runtime.snapshot_cycles, budget - used)
                budget -= reserved
            # Execute in chunks no larger than the runtime's checkpoint
            # interval so the watchdog can fire even when one capacitor
            # charge is shorter than a millisecond of cycles (otherwise
            # a Clank-style runtime can livelock, re-executing the same
            # region forever).
            interval = getattr(runtime, "watchdog_cycles", None)
            while pending_overhead == 0 and not cpu.halted and used < budget:
                chunk = budget - used
                if interval:
                    chunk = min(chunk, interval)
                # Store hooks (Clank WAR tracking) charge checkpoints
                # *inside* run_cycles; the stats delta splits the chunk
                # back into program work vs checkpoint overhead.
                ckpt_before = runtime.stats.checkpoint_cycles
                ran = cpu.run_cycles(chunk)
                ckpt_in_chunk = runtime.stats.checkpoint_cycles - ckpt_before
                used += ran
                ledger.execute(ran - ckpt_in_chunk)
                if ckpt_in_chunk:
                    ledger.overhead("checkpoint", ckpt_in_chunk)
                    ledger.commit()
                overhead = runtime.on_tick(ran)
                if overhead:
                    # A watchdog checkpoint fired: the state is saved now
                    # even if part of its cost spills into future ticks.
                    paid = min(overhead, budget - used)
                    used += paid
                    pending_overhead = overhead - paid
                    pending_kind = "checkpoint"
                    ledger.overhead("checkpoint", paid)
                    ledger.commit()
                if ran == 0:
                    break  # the next instruction cannot fit in this tick
            if reserved and not cpu.halted:
                snap = min(jit_snapshot(), reserved)
                used += snap
                if snap:
                    ledger.overhead("checkpoint", snap)
                    ledger.commit()
            supply.consume_cycles(used)

            if supply.finish_tick():
                # Forward-progress watchdog: the supply stayed up but
                # nothing ran. Charging toward an expensive instruction
                # takes a few such ticks; thousands mean the capacitor
                # tops out below the instruction's cost and the device
                # would sit here forever.
                if used == 0:
                    idle_ticks += 1
                    if idle_ticks >= IDLE_TICK_LIMIT:
                        raise ProgressStall(
                            f"forward-progress stall: {IDLE_TICK_LIMIT} "
                            "consecutive powered ticks executed zero "
                            "cycles; the stored energy cannot cover the "
                            "next instruction. Enlarge the storage "
                            "capacitor or weaken the workload.",
                            pc=cpu.pc, tick=supply.tick,
                            runtime=runtime.name,
                        )
                else:
                    idle_ticks = 0
            else:
                # Power outage: discard volatile state, drop any pending
                # overhead (it never got to execute).
                idle_ticks = 0
                pending_overhead = 0
                if self.volatile_core and not cpu.halted:
                    ledger.discard()
                else:
                    # NVP state survives the outage; a halted program
                    # already landed its results before the power fell.
                    ledger.commit()
                runtime.on_outage()
                if TRACER.enabled:
                    TRACER.emit(
                        "outage", tick=supply.tick, runtime=runtime.name,
                        engine="interp",
                    )
                if self.volatile_core:
                    cpu.memory.power_loss()
                if cpu.halted:
                    break

        ledger.close()
        return RunResult(
            completed=cpu.halted,
            skim_taken=skim_taken,
            timed_out=timed_out,
            wall_ms=supply.tick - start_tick,
            on_ms=supply.total_on_ms - start_on,
            off_ms=supply.total_off_ms - start_off,
            active_cycles=supply.total_cycles - start_cycles,
            outages=supply.outages - start_outages,
            runtime_stats=runtime.stats,
            ledger=ledger,
        )


def run_continuous(cpu: CPU, max_instructions: int = 100_000_000) -> int:
    """Run a program with uninterrupted power; returns total cycles.

    The baseline for runtime-quality curves (paper Figure 9), where
    runtime is normalized to the conventional precise execution."""
    return cpu.run(max_instructions)
