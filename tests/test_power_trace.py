"""Unit tests for power traces and the harvester synthesizer."""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.power import (
    DEFAULT_MEAN_POWER_W,
    PowerTrace,
    concat,
    constant_trace,
    paper_trace,
    paper_traces,
    square_trace,
    wifi_trace,
)
from repro.power.harvester import _DOUBLES_PER_DRAW, _doubles
from tests.golden import scalar_clamp, scalar_wifi_trace

#: Doubles for the clamp: NaN, both zeros, both infinities, negatives
#: and tiny magnitudes of both signs. One container adds ints and
#: numeric strings.
CLAMP_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, -1.5, 2.0, 1e-300, -1e-300]


class TestPowerTrace:
    def test_negative_samples_clamped(self):
        trace = PowerTrace([-1.0, 2.0])
        assert trace[0] == 0.0
        assert trace[1] == 2.0

    def test_power_at_wraps(self):
        trace = PowerTrace([1.0, 2.0, 3.0])
        assert trace.power_at(0) == 1.0
        assert trace.power_at(3) == 1.0
        assert trace.power_at(4) == 2.0

    def test_empty_trace_yields_zero(self):
        trace = PowerTrace([])
        assert trace.power_at(5) == 0.0
        assert trace.mean_power == 0.0

    def test_energy_at_integrates_one_ms(self):
        trace = PowerTrace([2.0])
        assert trace.energy_at(0) == pytest.approx(2.0e-3)

    def test_mean_and_peak(self):
        trace = PowerTrace([1.0, 3.0])
        assert trace.mean_power == 2.0
        assert trace.peak_power == 3.0

    def test_scaled(self):
        trace = PowerTrace([1.0, 2.0]).scaled(0.5)
        assert trace.samples.tolist() == [0.5, 1.0]

    def test_slice(self):
        trace = PowerTrace([1.0, 2.0, 3.0, 4.0]).slice_ms(1, 3)
        assert trace.samples.tolist() == [2.0, 3.0]

    def test_duration(self):
        assert PowerTrace([0.0] * 100).duration_ms == 100.0

    def test_samples_are_a_double_array(self):
        trace = PowerTrace([1, 2.5])
        assert trace.samples.typecode == "d"
        assert trace.nbytes() == 16

    def test_csv_roundtrip(self):
        trace = PowerTrace([1e-6, 2.5e-6, 0.0])
        restored = PowerTrace.from_csv(trace.to_csv())
        assert restored.samples.tolist() == pytest.approx(trace.samples.tolist())

    def test_csv_bad_header_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace.from_csv("a,b\n1,2\n")

    @given(st.lists(st.floats(0, 1e-3, allow_nan=False), min_size=1, max_size=50))
    def test_csv_roundtrip_property(self, samples):
        trace = PowerTrace(samples)
        restored = PowerTrace.from_csv(trace.to_csv())
        assert restored.samples.tolist() == pytest.approx(trace.samples.tolist())

    @pytest.mark.parametrize("container", [
        list, lambda v: array("d", v), np.array, lambda v: np.array(v, np.float32),
        lambda v: iter(v), lambda v: v + [-3, 4, "2.5", " -1e3 "],
    ])
    def test_clamp_matches_the_scalar_clamp(self, container):
        samples_w = container(list(CLAMP_VALUES))
        want = scalar_clamp(container(list(CLAMP_VALUES)))
        trace = PowerTrace(samples_w)
        assert trace.samples.typecode == "d"
        assert trace.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad, error", [
        (["1.0", "watts"], ValueError), ([1.0, None], TypeError), ([[1.0]], TypeError),
    ])
    def test_clamp_rejects_what_float_rejects(self, bad, error):
        with pytest.raises(error):
            scalar_clamp(bad)
        with pytest.raises(error):
            PowerTrace(bad)

    def test_float64_buffer_is_copied(self):
        values = np.array([1.0, -2.0])
        trace = PowerTrace(values)
        values[0] = 5.0
        assert trace.samples.tolist() == [1.0, 0.0]


class TestGenerators:
    def test_constant_trace(self):
        trace = constant_trace(1e-3, 10)
        assert len(trace) == 10
        assert trace.mean_power == pytest.approx(1e-3)

    def test_square_trace_pattern(self):
        trace = square_trace(1.0, on_ms=2, off_ms=3, periods=2)
        assert trace.samples.tolist() == [
            1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0
        ]

    def test_concat(self):
        trace = concat([constant_trace(1.0, 2), constant_trace(2.0, 1)])
        assert trace.samples.tolist() == [1.0, 1.0, 2.0]


class TestWifiSynthesis:
    def test_deterministic_for_seed(self):
        a = wifi_trace(duration_ms=500, seed=7)
        b = wifi_trace(duration_ms=500, seed=7)
        assert a.samples == b.samples

    def test_different_seeds_differ(self):
        a = wifi_trace(duration_ms=500, seed=1)
        b = wifi_trace(duration_ms=500, seed=2)
        assert a.samples != b.samples

    def test_mean_power_normalized(self):
        trace = wifi_trace(duration_ms=2000, seed=3, mean_power_w=300e-6)
        assert trace.mean_power == pytest.approx(300e-6, rel=1e-6)

    def test_bursty_structure(self):
        """Peak power should be well above the mean (bursty, not flat)."""
        trace = wifi_trace(duration_ms=2000, seed=11)
        assert trace.peak_power > 2.0 * trace.mean_power

    def test_all_samples_nonnegative(self):
        trace = wifi_trace(duration_ms=1000, seed=5)
        assert all(s >= 0 for s in trace.samples)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            wifi_trace(duration_ms=0)

    def test_paper_traces_count_and_spread(self):
        traces = paper_traces(count=9, duration_ms=500)
        assert len(traces) == 9
        means = [t.mean_power for t in traces]
        assert max(means) > 2.0 * min(means)  # weak to strong conditions
        assert len({t.name for t in traces}) == 9

    @pytest.mark.parametrize("count", [1, 3, 9])
    def test_one_trace_equals_its_entry_in_the_set(self, count):
        """A trace synthesized on its own equals the same index of the
        full set sample for sample, so lazily built sets match."""
        kwargs = dict(duration_ms=700, base_seed=41, mean_power_w=3e-4)
        traces = paper_traces(count=count, **kwargs)
        for index in reversed(range(count)):
            alone = paper_trace(index, count, **kwargs)
            assert alone.name == traces[index].name
            assert alone.samples == traces[index].samples


class TestBulkSynthesis:
    """``wifi_trace`` draws its stream in bulk and computes on arrays;
    the per-millisecond loop in tests/golden.py is its golden model,
    byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, _DOUBLES_PER_DRAW + 3])
    @pytest.mark.parametrize("seed", [0, 5, -9, 10**25])
    def test_doubles_are_the_next_random_calls(self, n, seed):
        bulk, scalar = random.Random(seed), random.Random(seed)
        bulk.random()
        scalar.random()
        drawn = _doubles(bulk, n)
        assert drawn.dtype == np.float64
        assert drawn.tolist() == [scalar.random() for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()
        assert bulk.random() == scalar.random()

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.one_of(
            st.just(0),
            st.integers(-(2**40), -1),
            st.integers(2**32, 2**64),
            st.integers(10**25 - 10**6, 10**25 + 10**6),
        ),
        duration_ms=st.integers(1, 4000),
        burst_rate_hz=st.sampled_from([0, 5, 40, 400, 1000, 2500]),
        burst_ms_mean=st.floats(0.3, 300),
        fading_period_ms=st.one_of(st.integers(1, 5000), st.floats(1.0, 5000.0)),
        mean_power_w=st.sampled_from([450e-6, 0.0, -1e-4, math.nan]),
    )
    # Tests run out and are drawn again: often at 400 Hz with short
    # bursts, and inside the variates at 2500 Hz.
    @example(seed=3, duration_ms=4000, burst_rate_hz=400, burst_ms_mean=1.0,
             fading_period_ms=700, mean_power_w=450e-6)
    @example(seed=-8, duration_ms=3000, burst_rate_hz=2500, burst_ms_mean=0.3,
             fading_period_ms=700.0, mean_power_w=450e-6)
    def test_matches_the_loop(self, **kwargs):
        trace = wifi_trace(**kwargs)
        samples, name = scalar_wifi_trace(**kwargs)
        assert trace.samples.tobytes() == samples.tobytes()
        assert trace.name == name

    @pytest.mark.parametrize("duration_ms", [1, 10])
    @pytest.mark.parametrize("fading_period_ms", [0, 0.0])
    def test_zero_fading_period_raises_like_the_loop(self, duration_ms, fading_period_ms):
        kwargs = dict(duration_ms=duration_ms, fading_period_ms=fading_period_ms)
        with pytest.raises(ZeroDivisionError):
            scalar_wifi_trace(**kwargs)
        with pytest.raises(ZeroDivisionError):
            wifi_trace(**kwargs)

    @pytest.mark.parametrize("base_seed", [100, 7, 23])
    def test_paper_traces_match_the_loop(self, base_seed):
        for index in range(9):
            trace = paper_trace(index, 9, 3000, base_seed)
            samples, _ = scalar_wifi_trace(
                duration_ms=3000,
                seed=base_seed + index,
                mean_power_w=DEFAULT_MEAN_POWER_W * (0.6 + 0.8 * (index / 8)),
            )
            assert trace.name == f"wifi-{index}"
            assert trace.samples.tobytes() == samples.tobytes()


class TestBundledTraces:
    def test_three_traces_ship_with_the_library(self):
        from repro.power import bundled_traces

        traces = bundled_traces()
        assert len(traces) == 3
        means = [t.mean_power for t in traces]
        assert means == sorted(means)  # weak / medium / strong
        assert all(len(t) == 2000 for t in traces)

    def test_bundled_traces_drive_a_run(self):
        from repro.core import AnytimeKernel
        from repro.power import Capacitor, bundled_traces
        from repro.workloads import make_workload

        workload = make_workload("NetMotion", "tiny")
        kernel = AnytimeKernel(workload.kernel)
        run = kernel.run_intermittent(
            workload.inputs,
            bundled_traces()[1],
            capacitor=Capacitor(capacitance_f=0.05e-6, v_initial=3.0, v_max=3.3),
            watchdog_cycles=400,
        )
        assert run.result.completed
        assert workload.decode(run.outputs) == workload.decoded_reference()
