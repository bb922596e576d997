"""The intermittent loop: one program x power supply x forward-progress policy.

Drives one program to completion under a harvested-power supply,
invoking the policy's checkpoint/restore callbacks around every power
outage. Time advances in 1 ms ticks; within each ON tick the program
runs as many cycles as the stored energy allows (up to the clock limit).

Both execution engines run this one loop (:func:`_intermittent_loop`).
It reads one surface, the :class:`~repro.runtime.base.ReplayPolicy`
callbacks: ``run_chunk``, ``halted``, ``on_tick``, ``on_restore`` and
``on_outage``, a restore signature for the livelock guard, a stall
location and an ``engine`` label. :class:`IntermittentExecutor` is the
live side of that surface, over a CPU and its runtime; a replay policy
is the lane side, over a recorded commit log
(:mod:`repro.runtime.batch_executor`).

The result distinguishes *completing precisely* (the program ran to
``HALT`` through all subword passes) from *completing via a skim point*
(a power outage hit while the skim register was armed, so the restore
jumped to the skim target and the approximate output was accepted).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

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


class _Deadline(threading.local):
    #: Wall-clock deadline (``time.monotonic()`` seconds) of the sample
    #: this thread runs; ``None`` disables the check.
    at: Optional[float] = None


#: Set by the experiment harness around each sample when the
#: ``REPRO_SAMPLE_TIMEOUT`` knob is armed (see :func:`set_sample_deadline`).
#: Per thread: ``repro serve`` runs jobs on a thread pool, and one job
#: clearing its deadline must not disarm another's.
_SAMPLE_DEADLINE = _Deadline()


def set_sample_deadline(deadline: Optional[float]) -> None:
    """Arm (or clear, with ``None``) this thread's cooperative
    per-sample wall-clock deadline. The intermittent loop polls it once
    per simulated millisecond and raises
    :class:`~repro.errors.SampleTimeout` when it passes — so a
    pathological sample dies with a typed error instead of hanging its
    worker."""
    _SAMPLE_DEADLINE.at = deadline


def sample_deadline_armed() -> bool:
    """True while this thread has a per-sample deadline armed (read once
    per loop call, so the loop polls only when it must)."""
    return _SAMPLE_DEADLINE.at is not None


def check_sample_deadline(tick: int) -> None:
    """Raise :class:`~repro.errors.SampleTimeout` if this thread's armed
    deadline passed; no-op when none is armed."""
    deadline = _SAMPLE_DEADLINE.at
    if deadline is not None and time.monotonic() > deadline:
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


def _intermittent_loop(
    supply: PowerSupply,
    policy,
    ledger: ProgressLedger,
    start_tick: int,
    max_wall_ms: int,
    pending_overhead: int = 0,
) -> Tuple[bool, bool, int]:
    """Run ``policy`` under ``supply`` until halt, timeout or a skim the
    policy cannot follow, booking every cycle into ``ledger``.

    ``policy`` is either side of the surface: an
    :class:`IntermittentExecutor` or a
    :class:`~repro.runtime.base.ReplayPolicy`. The run times out once
    more than ``max_wall_ms`` have passed since ``start_tick``.
    ``pending_overhead`` is the unpaid restore cost the run opens with:
    0, except when a skim handoff resumes a lane's run on a live CPU.

    Returns ``(skim_taken, timed_out, pending_overhead)``. A policy
    whose ``follows_skim`` is False returns at the restore that consumes
    the skim register, with that restore's unpaid cost as
    ``pending_overhead``.
    """
    traced = TRACER.enabled
    timed = sample_deadline_armed()
    jit_snapshot = getattr(policy, "on_low_voltage", None)
    interval = policy.watchdog_cycles
    volatile = policy.volatile_core
    skim = policy.skim
    engine = policy.engine
    # An opening account is the unpaid remainder of a restore.
    pending_kind = "restore"
    skim_taken = False
    stalled_restores = 0
    idle_ticks = 0
    last_restore_signature = None

    while not policy.halted:
        if supply.tick - start_tick > max_wall_ms:
            return skim_taken, True, pending_overhead
        if timed:
            check_sample_deadline(supply.tick)

        if not supply.on:
            supply.charge_until_on()
            armed_before = skim.armed
            pending_overhead = policy.on_restore()
            pending_kind = "restore"
            took_skim = armed_before and not skim.armed
            if traced:
                TRACER.emit(
                    "restore", tick=supply.tick, cost=pending_overhead,
                    runtime=policy.name, skim=took_skim, engine=engine,
                )
            if took_skim:
                skim_taken = True
                if not policy.follows_skim:
                    return True, False, pending_overhead
            # Forward-progress guard: restoring to the *identical*
            # architectural state many times in a row means no
            # durable progress survives the outages (the per-charge
            # budget cannot cover restore/checkpoint overheads plus
            # one checkpoint interval). Fail with a diagnosis
            # instead of replaying forever.
            signature = policy.restore_signature()
            if signature == last_restore_signature:
                stalled_restores += 1
                if stalled_restores >= STALLED_RESTORE_LIMIT:
                    raise ProgressStall(
                        "forward-progress livelock: 64 consecutive "
                        "restores resumed from the same state; no "
                        "progress survives the power cycles. Enlarge "
                        "the storage capacitor or shorten the "
                        "runtime's watchdog/checkpoint period.",
                        **policy.location(), tick=supply.tick,
                        runtime=policy.name,
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
        reserved = 0
        if jit_snapshot is not None and supply.tick_energy_limited:
            reserved = min(policy.snapshot_cycles, budget - used)
            budget -= reserved
        # Execute in chunks no larger than the runtime's checkpoint
        # interval so the watchdog can fire even when one capacitor
        # charge is shorter than a millisecond of cycles (otherwise
        # a Clank-style runtime can livelock, re-executing the same
        # region forever).
        while pending_overhead == 0 and not policy.halted and used < budget:
            chunk = budget - used
            if interval:
                chunk = min(chunk, interval)
            # Clank-style runtimes charge WAR checkpoints inside the
            # chunk (the live store hook, or its replay twin); the
            # stats delta splits the chunk back into program work vs
            # checkpoint overhead.
            ckpt_before = policy.stats.checkpoint_cycles
            ran = policy.run_chunk(chunk)
            ckpt_in_chunk = policy.stats.checkpoint_cycles - ckpt_before
            used += ran
            ledger.execute(ran - ckpt_in_chunk)
            if ckpt_in_chunk:
                ledger.overhead("checkpoint", ckpt_in_chunk)
                ledger.commit()
            overhead = policy.on_tick(ran)
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
        if reserved and not policy.halted:
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
                        **policy.location(), tick=supply.tick,
                        runtime=policy.name,
                    )
            else:
                idle_ticks = 0
        else:
            # Power outage: discard volatile state, drop any pending
            # overhead (it never got to execute).
            idle_ticks = 0
            pending_overhead = 0
            if volatile and not policy.halted:
                ledger.discard()
            else:
                # NVP state survives the outage; a halted program
                # already landed its results before the power fell.
                ledger.commit()
            policy.on_outage()
            if traced:
                TRACER.emit(
                    "outage", tick=supply.tick, runtime=policy.name,
                    engine=engine,
                )
    return skim_taken, False, pending_overhead


class IntermittentExecutor:
    """Runs one CPU under a power supply with a forward-progress runtime.

    It is the live side of the intermittent loop's surface
    (:class:`~repro.runtime.base.ReplayPolicy` is the lane side): a
    chunk is ``CPU.run_cycles``, the livelock signature is the PC and
    registers, and the callbacks are the runtime's. The runtime's
    methods are looked up when the loop starts or calls them, never
    here: the chaos controller replaces ``on_restore``,
    ``_take_checkpoint`` and ``on_low_voltage`` on the runtime instance
    after the executor is built.
    """

    #: Label of the loop's ``restore`` and ``outage`` trace events.
    engine = "interp"
    #: A restore that consumes the skim register jumps the PC to its
    #: target, and the loop goes on from there.
    follows_skim = True

    def __init__(self, cpu: CPU, supply: PowerSupply, runtime: IntermittentRuntime):
        self.cpu = cpu
        self.supply = supply
        self.runtime = runtime
        runtime.attach(cpu)
        #: True if the core loses register state on outage (Clank-style).
        self.volatile_core = runtime.volatile_core
        # The runtime state the loop reads, fixed for the runtime's life.
        self.name = runtime.name
        self.stats = runtime.stats
        self.skim = runtime.skim
        self.watchdog_cycles = getattr(runtime, "watchdog_cycles", None)
        self.snapshot_cycles = getattr(runtime, "snapshot_cycles", 0)

    def run(self, max_wall_ms: int = 10_000_000) -> RunResult:
        """Run to halt, timeout or exhaustion through the intermittent
        loop. The counters are this run's own: a supply may be reused
        across runs (:func:`~repro.runtime.stream.process_stream`)."""
        supply = self.supply
        start_tick = supply.tick
        start_cycles = supply.total_cycles
        start_on = supply.total_on_ms
        start_off = supply.total_off_ms
        start_outages = supply.outages
        ledger = ProgressLedger()
        skim_taken, timed_out, _ = _intermittent_loop(
            supply, self, ledger, start_tick, max_wall_ms
        )
        ledger.close()
        return RunResult(
            completed=self.cpu.halted,
            skim_taken=skim_taken,
            timed_out=timed_out,
            wall_ms=supply.tick - start_tick,
            on_ms=supply.total_on_ms - start_on,
            off_ms=supply.total_off_ms - start_off,
            active_cycles=supply.total_cycles - start_cycles,
            outages=supply.outages - start_outages,
            runtime_stats=self.stats,
            ledger=ledger,
        )

    # -- the loop's surface ------------------------------------------------

    @property
    def halted(self) -> bool:
        """True once the CPU has retired ``HALT``."""
        return self.cpu.halted

    @property
    def on_low_voltage(self):
        """The runtime's just-in-time snapshot hook, or ``None``."""
        return getattr(self.runtime, "on_low_voltage", None)

    def run_chunk(self, budget: int) -> int:
        """Run the CPU for up to ``budget`` cycles; returns cycles used."""
        return self.cpu.run_cycles(budget)

    def on_tick(self, cycles_executed: int) -> int:
        """The runtime's per-chunk callback; returns overhead cycles."""
        return self.runtime.on_tick(cycles_executed)

    def on_restore(self) -> int:
        """The runtime's restore; returns the restore cost."""
        return self.runtime.on_restore()

    def on_outage(self) -> None:
        """The runtime's outage callback; a volatile core also loses its
        volatile memory."""
        self.runtime.on_outage()
        if self.volatile_core:
            self.cpu.memory.power_loss()

    def restore_signature(self) -> Tuple:
        """The architectural state a restore resumed: PC and registers."""
        cpu = self.cpu
        return (cpu.pc, tuple(cpu.regs.regs))

    def location(self) -> dict:
        """Where a stall happened: the PC."""
        return {"pc": self.cpu.pc}


def run_continuous(cpu: CPU, max_instructions: int = 100_000_000) -> int:
    """Run a program with uninterrupted power; returns total cycles.

    The baseline for runtime-quality curves (paper Figure 9), where
    runtime is normalized to the conventional precise execution."""
    return cpu.run(max_instructions)
