"""Fault injectors: the chaos supply and the runtime instrumentation.

:class:`ChaosSupply` subclasses the normal hysteretic
:class:`~repro.power.supply.PowerSupply` and adds *forced* brown-outs:
at an exact ``total_cycles`` mark (the tick budget is capped so the
outage lands on the cycle), or at the end of the tick in which an
instrumented event fired. Forced outages raise the supply's
``tick_energy_limited`` flag exactly like a real decaying capacitor
does, so just-in-time runtimes (Hibernus) get their low-voltage
warning and stay correct under injection.

:class:`ChaosController` wires a :class:`~repro.fault.plan.FaultPlan`
into one built ``(cpu, supply, runtime)`` triple by wrapping *instance*
methods — the shipped runtime classes are untouched. The wrappers also
enforce the crash-consistency oracle's online invariants:

* **atomic-commit** — every checkpoint a restore consumes must have
  been committed completely. The controller records the value of each
  completed commit; a restore from an unrecorded checkpoint raises
  :class:`~repro.errors.TornCheckpointError`. Shipped runtimes keep the
  *old* checkpoint when a commit is torn (double-buffered pointer
  flip); the non-atomic mutant installs the mixed write and is caught.
* **legal-restore-pc** — after every restore the PC must equal the
  checkpointed PC (or the armed skim target, or the interrupted PC for
  a non-volatile core) and lie inside the program; anything else raises
  :class:`~repro.errors.IllegalRestoreError`.

A torn commit rewinds NVM and the skim register to their state at the
commit point before the reboot: the device died mid-commit, so nothing
that "executed" between the commit and the end of the tick ever
happened. Cycle accounting is not rewound — the oracle judges
architectural state, not cycle counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import IllegalRestoreError, TornCheckpointError
from ..observability.tracer import TRACER
from ..power.supply import PowerSupply
from ..runtime.checkpoint import Checkpoint
from .plan import BitFlip, FaultPlan

#: Gap between the last data slot and the scratch byte a ``scratch``
#: bit flip targets, so the flip can never graze a live array.
_SCRATCH_MARGIN = 64


class ChaosSupply(PowerSupply):
    """A power supply whose brown-outs the fault plan schedules.

    ``defer_trips=True`` (used for Hibernus) delays a requested trip to
    the *next* tick so the low-voltage flag is visible from
    ``begin_tick`` on — modelling gradual capacitor decay rather than
    an instantaneous cut the voltage monitor could never flag."""

    def __init__(self, *args, defer_trips: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.defer_trips = defer_trips
        #: Called as ``outage_hook(outage_ordinal, forced)`` from inside
        #: ``finish_tick`` whenever an outage lands (forced or natural).
        self.outage_hook: Optional[Callable[[int, bool], None]] = None
        self._targets: List[int] = []
        self._trip_now = False
        self._trip_next = False

    def schedule_cycle_outages(self, targets: List[int]) -> None:
        """Arm forced outages at absolute ``total_cycles`` marks."""
        self._targets = sorted(targets)

    def request_trip(self) -> None:
        """Force a brown-out at the end of the current tick (or the
        next one, when trips are deferred for a just-in-time runtime)."""
        if self.defer_trips:
            self._trip_next = True
        else:
            self._trip_now = True

    def begin_tick(self) -> int:
        """Start one ON millisecond, capping the budget at any armed
        cycle target so the forced outage lands on the exact cycle."""
        budget = super().begin_tick()
        if self._trip_next:
            self._trip_next = False
            self._trip_now = True
            self._tick_energy_limited = True
        if self._targets:
            remaining = self._targets[0] - self.total_cycles
            if remaining <= budget:
                self._targets.pop(0)
                budget = remaining if remaining > 0 else 0
                self._trip_now = True
                self._tick_energy_limited = True
        return budget

    def finish_tick(self) -> bool:
        """Advance one millisecond; apply any forced trip and invoke the
        outage hook when the power actually fails."""
        forced = self._trip_now
        if forced:
            self._trip_now = False
            self._tick_energy_limited = True
        alive = super().finish_tick()
        if not alive and self.outage_hook is not None:
            self.outage_hook(self.outages, forced)
        return alive


class ChaosController:
    """Wires one fault plan into a built executor triple.

    Construct *after* ``IntermittentExecutor`` (the runtime must already
    be attached so the entry checkpoint exists), then call
    :meth:`wire`. The controller raises typed
    :class:`~repro.errors.ConsistencyViolation` subclasses the moment an
    invariant breaks; the campaign catches and classifies them."""

    def __init__(self, plan: FaultPlan, cpu, supply: ChaosSupply, runtime, kernel):
        self.plan = plan
        self.cpu = cpu
        self.supply = supply
        self.runtime = runtime
        self.kernel = kernel
        self.n_instructions = len(kernel.compiled.program.instructions)

        #: Quality levels observed at each skim consume, in order.
        self.consumed_levels: List[int] = []
        #: False once an event voided exact output comparison (a data
        #: bit flip, or a Hibernus outage without a snapshot).
        self.output_checks = True
        #: Ordinal counters (1-based, matching the plan).
        self.checkpoint_ordinal = 0
        self.restore_ordinal = 0
        self.arm_ordinal = 0
        #: Injection bookkeeping for the campaign report.
        self.forced_outages = 0
        self.flips_applied = 0
        self.torn_commits = 0

        self._committed: set = set()
        self._checkpoint_events = plan.checkpoint_events()
        self._restore_events = plan.restore_ordinals()
        self._arm_events = plan.skim_arm_ordinals()
        self._flip_events = plan.flips_by_outage()
        self._pending_rewind: Optional[dict] = None
        self._scratch_base, self._scratch_span = self._scratch_window()

    # -- wiring ------------------------------------------------------------

    def wire(self) -> "ChaosController":
        """Install every wrapper and arm the supply's cycle targets."""
        self.supply.schedule_cycle_outages(self.plan.cycle_targets())
        self.supply.outage_hook = self._on_outage
        if getattr(self.runtime, "checkpoint", None) is not None:
            self._committed.add(self._checkpoint_value(self.runtime.checkpoint))
        self._wrap_commits()
        self._wrap_restore()
        self._wrap_skim()
        return self

    def unwire(self) -> None:
        """Remove what :meth:`wire` installed on the supply and the
        runtime, once the scenario is read: the wrappers hold the
        controller, the runtime and the CPU in reference cycles that
        only the cyclic garbage collector would free."""
        self.supply.outage_hook = None
        for name in ("_take_checkpoint", "on_low_voltage", "on_restore"):
            self.runtime.__dict__.pop(name, None)
        self.runtime.skim.__dict__.pop("consume", None)

    def _wrap_commits(self) -> None:
        """Intercept checkpoint commits (Clank's ``_take_checkpoint`` or
        Hibernus's ``on_low_voltage``) for ordinals, torn injection and
        the committed-value ledger."""
        runtime = self.runtime
        take = getattr(runtime, "_take_checkpoint", None)
        if take is not None:
            def wrapped_take(cause: str, _orig=take) -> int:
                old = runtime.checkpoint
                cost = _orig(cause)
                self._commit_done(old)
                return cost

            runtime._take_checkpoint = wrapped_take
            return
        low = getattr(runtime, "on_low_voltage", None)
        if low is not None:
            def wrapped_low(_orig=low) -> int:
                old = runtime.checkpoint
                armed_before = runtime._armed_this_cycle
                cost = _orig()
                if not armed_before and runtime._armed_this_cycle:
                    self._commit_done(old)
                return cost

            runtime.on_low_voltage = wrapped_low

    def _commit_done(self, old: Optional[Checkpoint]) -> None:
        """One checkpoint commit completed: count it, tear it if the
        plan says so, otherwise record it as committed."""
        self.checkpoint_ordinal += 1
        event = self._checkpoint_events.get(self.checkpoint_ordinal)
        if event is not None and event.torn:
            # The device dies during this commit: snapshot the durable
            # state as of the commit point so the outage can rewind to
            # it, and leave the new checkpoint out of the commit ledger.
            self.torn_commits += 1
            self._pending_rewind = {
                "nvm": self._nvm_snapshot(),
                "skim": self._skim_snapshot(),
                "old": old,
                "new": self.runtime.checkpoint,
                "committed": set(self._committed),
            }
            self.supply.request_trip()
            return
        self._committed.add(self._checkpoint_value(self.runtime.checkpoint))
        if event is not None:
            self.supply.request_trip()

    def _wrap_restore(self) -> None:
        """Check atomic-commit and legal-restore-pc around every
        restore, and schedule restore-targeted outages."""
        runtime = self.runtime
        cpu = self.cpu
        orig = runtime.on_restore

        def wrapped_restore() -> int:
            self.restore_ordinal += 1
            checkpoint = getattr(runtime, "checkpoint", None)
            if checkpoint is not None:
                value = self._checkpoint_value(checkpoint)
                if value not in self._committed:
                    raise TornCheckpointError(
                        "restore consumed a checkpoint whose commit never "
                        "completed",
                        tick=self.supply.tick,
                        restore=self.restore_ordinal,
                        runtime=runtime.name,
                    )
            if runtime.skim.armed:
                expected_pc = runtime.skim.peek()
            elif checkpoint is not None:
                expected_pc = checkpoint.pc
            else:
                expected_pc = cpu.pc  # non-volatile core resumes in place
            cost = orig()
            if cpu.pc != expected_pc or not 0 <= cpu.pc < self.n_instructions:
                raise IllegalRestoreError(
                    "restore resumed from an illegal program counter",
                    pc=cpu.pc,
                    expected=expected_pc,
                    tick=self.supply.tick,
                    runtime=runtime.name,
                )
            if self.restore_ordinal in self._restore_events:
                self.supply.request_trip()
            return cost

        runtime.on_restore = wrapped_restore

    def _wrap_skim(self) -> None:
        """Count skim arms/consumes; schedule arm-targeted outages."""
        skim = self.runtime.skim
        arm_hook = self.cpu.skim_hook

        def wrapped_arm(target: int) -> None:
            arm_hook(target)
            self.arm_ordinal += 1
            if self.arm_ordinal in self._arm_events:
                self.supply.request_trip()

        self.cpu.skim_hook = wrapped_arm
        orig_consume = skim.consume

        def wrapped_consume() -> int:
            self.consumed_levels.append(skim.quality_level)
            return orig_consume()

        skim.consume = wrapped_consume

    # -- outage-time injection ---------------------------------------------

    def _on_outage(self, ordinal: int, forced: bool) -> None:
        """Runs inside ``finish_tick`` the moment power fails: apply a
        pending torn-commit rewind, then any bit flips scheduled for
        this outage ordinal."""
        if forced:
            self.forced_outages += 1
        if TRACER.enabled:
            TRACER.emit(
                "fault_outage", ordinal=ordinal, forced=forced,
                tick=self.supply.tick, cycles=self.supply.total_cycles,
            )
        # A just-in-time runtime that browns out without having
        # snapshotted this power cycle rewinds into a segment it will
        # re-execute without WAR protection: exact output equality is
        # no longer guaranteed by the model.
        if (
            hasattr(self.runtime, "_armed_this_cycle")
            and not self.runtime._armed_this_cycle
        ):
            self.output_checks = False
        if self._pending_rewind is not None:
            self._apply_torn_rewind()
        for flip in self._flip_events.get(ordinal, []):
            self._apply_flip(flip)

    def _apply_torn_rewind(self) -> None:
        """The reboot after a torn commit: durable state reverts to the
        commit point; the surviving checkpoint depends on atomicity."""
        rewind = self._pending_rewind
        self._pending_rewind = None
        self._restore_nvm(rewind["nvm"])
        self._restore_skim(rewind["skim"])
        # The outage is modelled as landing at the *end of the tick* in
        # which the commit tore, but the device actually died mid-commit
        # — everything the rest of the tick "executed" never happened.
        # Durable state rewinds above; commits from the erased suffix
        # leave the ledger; and if the program "halted" in the suffix,
        # that halt is part of the erased timeline too.
        self._committed = rewind["committed"]
        self.cpu.halted = False
        runtime = self.runtime
        atomic = getattr(runtime, "atomic_commit", True)
        if atomic:
            runtime.checkpoint = rewind["old"]
        else:
            # Non-atomic commit: the torn write lands — new registers
            # and flags under the old PC, a state that never existed.
            new = rewind["new"]
            old = rewind["old"]
            runtime.checkpoint = Checkpoint(
                regs=list(new.regs), flags=tuple(new.flags), pc=old.pc
            )
        if hasattr(runtime, "_armed_this_cycle"):
            # The torn snapshot does not count as this cycle's save.
            self.output_checks = False
        if TRACER.enabled:
            TRACER.emit(
                "fault_torn_commit", atomic=atomic,
                ordinal=self.checkpoint_ordinal, tick=self.supply.tick,
            )

    def _apply_flip(self, flip: BitFlip) -> None:
        """Flip one NVM bit, scratch or data, per the plan."""
        memory = self.cpu.memory
        if flip.target == "data":
            addr = self._data_address(flip.offset)
            self.output_checks = False
        else:
            addr = self._scratch_base + flip.offset % self._scratch_span
        value = memory.load_byte(addr)
        memory.store_byte(addr, value ^ (1 << (flip.bit % 8)))
        self.flips_applied += 1
        if TRACER.enabled:
            TRACER.emit(
                "fault_bit_flip", address=addr, bit=flip.bit % 8,
                target=flip.target, tick=self.supply.tick,
            )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _checkpoint_value(checkpoint: Checkpoint) -> Tuple:
        """A checkpoint's exact architectural value, for the ledger."""
        return (tuple(checkpoint.regs), tuple(checkpoint.flags), checkpoint.pc)

    def _scratch_window(self) -> Tuple[int, int]:
        """(base, span) of NVM bytes no data slot touches."""
        slots = self.kernel.compiled.slots
        end = 0
        for slot in slots.values():
            end = max(end, slot.address + slot.size_bytes)
        nvm = self.cpu.memory.region("nvm")
        base = ((end + 3) // 4) * 4 + _SCRATCH_MARGIN
        span = max(1, nvm.base + nvm.size - base)
        return base, span

    def _data_address(self, offset: int) -> int:
        """A byte inside one live data slot, chosen by ``offset``."""
        slots = self.kernel.compiled.slots
        names = sorted(slots)
        slot = slots[names[offset % len(names)]]
        return slot.address + offset % slot.size_bytes

    def _nvm_snapshot(self) -> Dict[str, bytes]:
        """Copies of every non-volatile region's bytes."""
        return self.cpu.memory.snapshot_nonvolatile()

    def _restore_nvm(self, snapshot: Dict[str, bytes]) -> None:
        """Rewind non-volatile regions to a snapshot."""
        self.cpu.memory.restore_nonvolatile(snapshot)

    def _skim_snapshot(self) -> Tuple:
        """The skim register's durable state at one instant."""
        skim = self.runtime.skim
        return (skim._target, skim.quality_level, skim.set_count, skim.taken_count)

    def _restore_skim(self, snapshot: Tuple) -> None:
        """Rewind the skim register to a snapshot."""
        skim = self.runtime.skim
        skim._target, skim.quality_level, skim.set_count, skim.taken_count = snapshot
