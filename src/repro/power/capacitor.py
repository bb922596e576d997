"""Energy-storage capacitor model.

The paper models a 10 uF storage capacitor. We track stored energy
E = (1/2) C V^2 and derive voltage from it. The supply turns the CPU on
when the voltage reaches ``v_on`` and browns out below ``v_off`` —
standard hysteretic operation for intermittent platforms.
"""

from __future__ import annotations

from math import sqrt


class Capacitor:
    """Hysteretic storage capacitor."""

    def __init__(
        self,
        capacitance_f: float = 10e-6,
        v_on: float = 3.0,
        v_off: float = 1.8,
        v_max: float = 4.5,
        v_initial: float = 0.0,
    ):
        if not 0 <= v_off < v_on <= v_max:
            raise ValueError("require 0 <= v_off < v_on <= v_max")
        self.capacitance = capacitance_f
        self.v_on = v_on
        self.v_off = v_off
        self.v_max = v_max
        self.energy = 0.5 * capacitance_f * v_initial**2
        self._e_max = 0.5 * capacitance_f * v_max**2

    # -- conversions -----------------------------------------------------------

    @property
    def voltage(self) -> float:
        """Present capacitor voltage implied by the stored energy."""
        return sqrt(2.0 * self.energy / self.capacitance)

    def energy_at(self, voltage: float) -> float:
        """Stored energy (J) at a given voltage: ``C*V^2/2``."""
        return 0.5 * self.capacitance * voltage**2

    @property
    def usable_energy(self) -> float:
        """Energy available before the brown-out threshold is crossed."""
        return max(0.0, self.energy - self.energy_at(self.v_off))

    @property
    def full_swing_energy(self) -> float:
        """Energy between v_on and v_off: the per-charge cycle budget."""
        return self.energy_at(self.v_on) - self.energy_at(self.v_off)

    # -- state changes ----------------------------------------------------------

    def harvest(self, energy_j: float) -> None:
        """Add harvested energy (clamped at the capacitor's maximum)."""
        if energy_j < 0:
            raise ValueError("harvested energy must be non-negative")
        self.energy = min(self._e_max, self.energy + energy_j)

    def charge(self, powers, tick: int, end: int, seconds: float) -> int:
        """Charge from tick ``tick`` until the voltage reaches ``v_on``,
        but not past tick ``end``; returns the tick reached.

        Each tick harvests ``powers[tick % len(powers)]`` W for
        ``seconds``. This is :attr:`above_on_threshold`, then
        :meth:`harvest`, per tick, with the same float operations in
        the same order, in one local loop (the off phase of every
        sample runs it)."""
        energy = self.energy
        e_max = self._e_max
        capacitance = self.capacitance
        v_on = self.v_on
        count = len(powers)
        while tick < end and not sqrt(2.0 * energy / capacitance) >= v_on:
            energy += powers[tick % count] * seconds
            if not energy < e_max:  # min(e_max, energy), as harvest()
                energy = e_max
            tick += 1
        self.energy = energy
        return tick

    def draw(self, energy_j: float) -> None:
        """Draw load energy (clamped at zero; the load browns out first)."""
        if energy_j < 0:
            raise ValueError("drawn energy must be non-negative")
        self.energy = max(0.0, self.energy - energy_j)

    def set_voltage(self, voltage: float) -> None:
        """Force the stored energy to match ``voltage`` exactly."""
        if not 0 <= voltage <= self.v_max:
            raise ValueError("voltage out of range")
        self.energy = self.energy_at(voltage)

    # -- thresholds ----------------------------------------------------------------

    @property
    def above_on_threshold(self) -> bool:
        """Whether the voltage has reached the turn-on threshold."""
        return self.voltage >= self.v_on

    @property
    def below_off_threshold(self) -> bool:
        """Whether the voltage has dropped below brown-out."""
        return self.voltage < self.v_off

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Capacitor({self.capacitance * 1e6:g} uF, V={self.voltage:.2f}, "
            f"on={self.v_on}, off={self.v_off})"
        )
