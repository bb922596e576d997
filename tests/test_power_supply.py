"""Unit tests for the capacitor, energy model and supply FSM."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.power import (
    Capacitor,
    EnergyModel,
    PowerSupply,
    PowerTrace,
    SupplyExhausted,
    constant_trace,
    square_trace,
)
from tests.golden import method_charge_until_on


class TestCapacitor:
    def test_energy_voltage_roundtrip(self):
        cap = Capacitor(capacitance_f=10e-6, v_initial=3.0)
        assert cap.voltage == pytest.approx(3.0)
        assert cap.energy == pytest.approx(0.5 * 10e-6 * 9.0)

    def test_harvest_accumulates(self):
        cap = Capacitor(v_initial=0.0)
        cap.harvest(1e-6)
        assert cap.energy == pytest.approx(1e-6)

    def test_harvest_clamped_at_vmax(self):
        cap = Capacitor(v_max=4.5, v_initial=4.5)
        e_before = cap.energy
        cap.harvest(1.0)
        assert cap.energy == e_before

    def test_draw_clamped_at_zero(self):
        cap = Capacitor(v_initial=1.0)
        cap.draw(1.0)
        assert cap.energy == 0.0

    def test_negative_amounts_rejected(self):
        cap = Capacitor()
        with pytest.raises(ValueError):
            cap.harvest(-1.0)
        with pytest.raises(ValueError):
            cap.draw(-1.0)

    def test_thresholds(self):
        cap = Capacitor(v_on=3.0, v_off=1.8, v_initial=3.0)
        assert cap.above_on_threshold
        assert not cap.below_off_threshold
        cap.set_voltage(1.0)
        assert cap.below_off_threshold

    def test_usable_energy(self):
        cap = Capacitor(capacitance_f=10e-6, v_off=1.8, v_initial=3.0)
        expected = 0.5 * 10e-6 * (3.0**2 - 1.8**2)
        assert cap.usable_energy == pytest.approx(expected)

    def test_full_swing_energy_is_paper_budget(self):
        """10 uF swinging 3.0 V -> 1.8 V stores ~28.8 uJ of work."""
        cap = Capacitor(capacitance_f=10e-6, v_on=3.0, v_off=1.8)
        assert cap.full_swing_energy == pytest.approx(28.8e-6, rel=1e-9)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            Capacitor(v_on=1.0, v_off=2.0)

    def test_set_voltage_range_checked(self):
        cap = Capacitor(v_max=4.5)
        with pytest.raises(ValueError):
            cap.set_voltage(5.0)


class TestEnergyModel:
    def test_defaults_give_few_ms_per_charge(self):
        """The paper regime: one capacitor charge lasts a few ms."""
        model = EnergyModel()
        cap = Capacitor()
        cycles = model.cycles_for_energy(cap.full_swing_energy)
        ms = model.ms_for_cycles(cycles)
        assert 1.0 <= ms <= 20.0

    def test_cycles_per_ms(self):
        assert EnergyModel(clock_hz=24_000_000).cycles_per_ms == 24_000

    def test_backup_overhead_scales_energy(self):
        base = EnergyModel(energy_per_cycle_j=100e-12)
        nvp = EnergyModel(energy_per_cycle_j=100e-12, backup_overhead=0.25)
        assert nvp.energy_per_cycle == pytest.approx(125e-12)

    def test_energy_cycles_roundtrip(self):
        model = EnergyModel(energy_per_cycle_j=200e-12)
        assert model.cycles_for_energy(model.energy_for_cycles(1234)) == 1234

    def test_zero_energy_zero_cycles(self):
        assert EnergyModel().cycles_for_energy(0.0) == 0
        assert EnergyModel().cycles_for_energy(-1.0) == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(energy_per_cycle_j=0)
        with pytest.raises(ValueError):
            EnergyModel(backup_overhead=-0.1)

    def test_active_power(self):
        model = EnergyModel(energy_per_cycle_j=208e-12, clock_hz=24_000_000)
        assert model.active_power_w == pytest.approx(5e-3, rel=0.01)


class TestPowerSupply:
    def make_supply(self, trace, **cap_kwargs):
        return PowerSupply(trace, Capacitor(**cap_kwargs), EnergyModel())

    def test_charges_until_on(self):
        supply = self.make_supply(constant_trace(1e-3, 1000))
        waited = supply.charge_until_on()
        assert supply.on
        assert waited > 0
        assert supply.capacitor.voltage >= supply.capacitor.v_on

    def test_dead_trace_raises(self):
        supply = self.make_supply(constant_trace(0.0, 10))
        with pytest.raises(SupplyExhausted):
            supply.charge_until_on(max_ms=100)

    def test_begin_tick_requires_on(self):
        supply = self.make_supply(constant_trace(1e-3, 10))
        with pytest.raises(RuntimeError):
            supply.begin_tick()
        with pytest.raises(RuntimeError):
            supply.finish_tick()

    def test_budget_capped_by_clock(self):
        supply = self.make_supply(constant_trace(10e-3, 1000))
        supply.charge_until_on()
        assert supply.begin_tick() <= supply.energy.cycles_per_ms

    def test_brownout_detected(self):
        supply = self.make_supply(square_trace(2e-3, on_ms=50, off_ms=200, periods=40))
        supply.charge_until_on()
        ticks_alive = 0
        # Drain at full clock rate until brown-out.
        for _ in range(10_000):
            budget = supply.begin_tick()
            supply.consume_cycles(budget)
            if not supply.finish_tick():
                break
            ticks_alive += 1
        assert not supply.on
        assert supply.outages == 1
        # ~5.8 ms per full swing with default parameters
        assert 1 <= ticks_alive <= 30

    def test_charge_discharge_cycle_repeats(self):
        supply = self.make_supply(square_trace(2e-3, on_ms=30, off_ms=100, periods=200))
        outage_count = 0
        for _ in range(5):
            supply.charge_until_on()
            while True:
                budget = supply.begin_tick()
                supply.consume_cycles(budget)
                if not supply.finish_tick():
                    outage_count += 1
                    break
        assert outage_count == 5
        assert supply.outages == 5

    def test_consume_negative_rejected(self):
        supply = self.make_supply(constant_trace(1e-3, 10))
        with pytest.raises(ValueError):
            supply.consume_cycles(-1)

    def test_bookkeeping(self):
        supply = self.make_supply(constant_trace(5e-3, 1000))
        supply.charge_until_on()
        budget = supply.begin_tick()
        supply.consume_cycles(100)
        supply.finish_tick()
        assert supply.total_cycles == 100
        assert supply.total_on_ms == 1
        assert supply.elapsed_ms == supply.tick


_POWERS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-3),
    st.floats(0.0, 5.0),
)


def _supply_pair(samples, capacitance, v_max, on_frac, off_frac, v_initial,
                 start_tick):
    """Two supplies in the same off state on one trace."""
    trace = PowerTrace(samples, name="drawn")
    v_on = v_max * on_frac
    supplies = []
    for _ in range(2):
        capacitor = Capacitor(
            capacitance_f=capacitance, v_on=v_on, v_off=v_on * off_frac,
            v_max=v_max, v_initial=v_initial,
        )
        supplies.append(
            PowerSupply(trace, capacitor, EnergyModel(), start_tick=start_tick)
        )
    return supplies


def _charge(charge, supply, max_ms):
    """``(waited or exception text, tick, energy bits, off ms, on)``."""
    try:
        outcome = charge(supply, max_ms)
    except SupplyExhausted as exc:
        outcome = f"exhausted: {exc}"
    return (
        outcome, supply.tick, supply.capacitor.energy.hex(),
        supply.total_off_ms, supply.on,
    )


class TestChargeLoopGolden:
    """``charge_until_on`` against the per-method loop of
    ``tests/golden.py``: the same tick, waited count and energy, bit for
    bit, and the same dead-trace error at the same tick."""

    @settings(deadline=None, max_examples=400)
    @given(
        samples=st.lists(_POWERS, max_size=40),
        capacitance=st.floats(1e-7, 1e-4),
        v_max=st.floats(0.5, 5.0),
        on_frac=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        off_frac=st.floats(0.0, 0.99),
        initial_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        start_tick=st.integers(0, 10**6),
        max_ms=st.integers(0, 3000),
    )
    def test_matches_the_golden(self, samples, capacitance, v_max, on_frac,
                                off_frac, initial_frac, start_tick, max_ms):
        golden, real = _supply_pair(
            samples, capacitance, v_max, on_frac, off_frac,
            v_max * initial_frac, start_tick,
        )
        assert _charge(PowerSupply.charge_until_on, real, max_ms) == _charge(
            method_charge_until_on, golden, max_ms
        )

    @pytest.mark.parametrize("samples", [[], [0.0] * 7, [0.0, 1e-12, 0.0]])
    def test_dead_trace_stops_at_the_same_tick(self, samples):
        golden, real = _supply_pair(samples, 10e-6, 3.3, 0.9, 0.5, 0.0, 5)
        got = _charge(PowerSupply.charge_until_on, real, 500)
        assert got == _charge(method_charge_until_on, golden, 500)
        assert got[0].startswith("exhausted: ")
        assert got[1] == 5 + 501
