"""Hysteretic power supply FSM.

Combines a harvest trace, the storage capacitor and the energy model
into the on/off supply the intermittent executor sees. Time advances in
1 ms ticks (the trace sample period); within an ON tick the CPU may run
up to ``cycles_per_ms`` cycles, further limited by the energy stored
above the brown-out threshold.

Typical use (this is what the intermittent loop of
:mod:`repro.runtime.executor` does, on both engines)::

    supply = PowerSupply(trace)
    while True:
        supply.charge_until_on()
        budget = supply.begin_tick()      # harvests, returns cycle budget
        used = cpu.run_cycles(budget)
        supply.consume_cycles(used)
        alive = supply.finish_tick()      # advances time, detects brown-out
        if not alive:
            ...  # power outage
"""

from __future__ import annotations

from typing import Optional

from ..errors import ProgressStall, SupplyStateError
from .capacitor import Capacitor
from .energy import EnergyModel
from .trace import PowerTrace


class SupplyExhausted(ProgressStall):
    """Raised when the harvest trace cannot ever turn the device on.

    A :class:`~repro.errors.ProgressStall`: a dead trace is the extreme
    no-forward-progress environment, and the chaos campaign classifies
    it as a graceful (non-violation) outcome."""


class PowerSupply:
    """The device's view of harvested power."""

    def __init__(
        self,
        trace: PowerTrace,
        capacitor: Optional[Capacitor] = None,
        energy_model: Optional[EnergyModel] = None,
        start_tick: int = 0,
    ):
        self.trace = trace
        self.capacitor = capacitor or Capacitor()
        self.energy = energy_model or EnergyModel()
        self.tick = start_tick
        self.on = False
        self.outages = 0
        self.total_on_ms = 0
        self.total_off_ms = 0
        self.total_cycles = 0
        self._tick_energy_limited = False

    # -- off phase -----------------------------------------------------------

    def charge_until_on(self, max_ms: int = 10_000_000) -> int:
        """Harvest while off until the ON threshold is reached.

        Returns the number of milliseconds spent charging. Raises
        :class:`SupplyExhausted` if the threshold is not reached within
        ``max_ms`` (dead trace)."""
        if self.on:
            return 0
        waited = 0
        while not self.capacitor.above_on_threshold:
            self.capacitor.harvest(self.trace.energy_at(self.tick))
            self.tick += 1
            waited += 1
            if waited > max_ms:
                raise SupplyExhausted(
                    f"trace {self.trace.name!r} cannot reach v_on within {max_ms} ms"
                )
        self.total_off_ms += waited
        self.on = True
        return waited

    # -- on phase ---------------------------------------------------------------

    def begin_tick(self) -> int:
        """Start one ON millisecond: harvest, then return the cycle budget.

        The budget is the clock limit for one millisecond, capped by the
        energy stored above the brown-out threshold. A device runs at
        full clock while on — it cannot throttle to the harvest rate —
        so an energy-capped tick *ends in a brown-out* (recorded here,
        applied by :meth:`finish_tick`)."""
        if not self.on:
            raise SupplyStateError("begin_tick while supply is off", tick=self.tick)
        self.capacitor.harvest(self.trace.energy_at(self.tick))
        energy_limited = self.energy.cycles_for_energy(self.capacitor.usable_energy)
        self._tick_energy_limited = energy_limited < self.energy.cycles_per_ms
        return min(self.energy.cycles_per_ms, energy_limited)

    def consume_cycles(self, cycles: int) -> None:
        """Draw the energy for ``cycles`` executed this tick."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.capacitor.draw(self.energy.energy_for_cycles(cycles))
        self.total_cycles += cycles

    def finish_tick(self) -> bool:
        """Advance time one millisecond; returns False on brown-out.

        The device browns out when the voltage crosses ``v_off`` *or*
        when the energy stored above ``v_off`` cannot fund even one more
        cycle — the next instruction would drag the supply under the
        threshold mid-flight."""
        if not self.on:
            raise SupplyStateError("finish_tick while supply is off", tick=self.tick)
        self.tick += 1
        self.total_on_ms += 1
        drained = (
            self._tick_energy_limited
            or self.capacitor.below_off_threshold
            or self.capacitor.usable_energy < self.energy.energy_per_cycle
        )
        if drained:
            self.on = False
            self.outages += 1
            return False
        return True

    # -- bookkeeping -----------------------------------------------------------------

    @property
    def tick_energy_limited(self) -> bool:
        """True if the tick begun last cannot run a full millisecond:
        the stored energy will be exhausted (brown-out) before the next
        tick. Just-in-time checkpointing runtimes (Hibernus) use this as
        their low-voltage interrupt."""
        return self._tick_energy_limited

    @property
    def elapsed_ms(self) -> int:
        """Wall-clock time elapsed (on + off), in milliseconds."""
        return self.tick

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ON" if self.on else "OFF"
        return (
            f"PowerSupply({self.trace.name!r}, {state}, t={self.tick} ms, "
            f"V={self.capacitor.voltage:.2f}, outages={self.outages})"
        )
