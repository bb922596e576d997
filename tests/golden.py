"""The golden models of the differential tests.

The harness runs every grid on the replay engine; the interpreter is
the golden model it is checked against. It is selected per sample, by
calling ``_run_sample`` on each spec of a configuration's grid. The
replay engine's WAR horizons come from a vectorized index; its golden
model is the one-shot scalar scan :func:`war_scan`. Power traces are
synthesized in bulk on numpy arrays; their golden model is the
per-millisecond loop :func:`scalar_wifi_trace`, with the per-sample
clamp :func:`scalar_clamp`.
"""

import math
import random
from array import array
from bisect import bisect_left

from repro.experiments.common import _run_sample, _sample_specs
from repro.sim.replay import _LOAD


def interp_runs(workload, configs, runtime, setup, environment, reference=None):
    """Every sample of ``configs`` (``(mode, bits)`` pairs) in grid
    order, each run on the interpreter: the samples that
    ``run_benchmark_suite`` returns on the replay engine, concatenated."""
    return [
        _run_sample(spec)
        for mode, bits in configs
        for spec in _sample_specs(
            workload, mode, bits, runtime, setup, environment, reference
        )
    ]


def war_scan(record, start):
    """First WAR store position at/after ``start``, else ``record.length``.

    Clank's read-first/written byte tracking from empty sets at
    ``start``, one recorded access at a time, with no memo and no state
    kept between calls: the first store that hits a read-first byte is
    where Clank checkpoints. ``BatchIndex.war_from`` (and so
    ``ReplayRecord.next_war_before``) must give the same position."""
    read_first, written = set(), set()
    first = bisect_left(record.acc_pos, start)
    for pos, addr in zip(record.acc_pos[first:], record.acc_addr[first:]):
        pc = record.pcs[pos]
        span = range(addr, addr + record.pc_size[pc])
        if record.pc_kind[pc] == _LOAD:
            read_first.update(byte for byte in span if byte not in written)
        elif read_first.intersection(span):
            return pos
        else:
            written.update(span)
    return record.length


def scalar_clamp(samples_w):
    """``PowerTrace``'s samples for ``samples_w``, one Python call per
    sample: each converted by ``float()``, NaN and negatives to 0.0."""
    return array("d", [max(0.0, float(s)) for s in samples_w])


def scalar_wifi_trace(
    duration_ms=4000,
    seed=0,
    mean_power_w=450e-6,
    burst_rate_hz=40.0,
    burst_ms_mean=8.0,
    fading_period_ms=700.0,
    name="",
):
    """``(samples, name)`` of ``wifi_trace`` with the same arguments,
    drawn one ``random()`` call and computed one millisecond at a time.
    ``wifi_trace`` must give the same bytes and the same name."""
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(seed)
    samples = [0.0] * duration_ms

    # Background floor: a few percent of the mean, always present.
    floor = 0.05
    for t in range(duration_ms):
        samples[t] = floor * (0.5 + rng.random())

    # Bursts.
    p_arrival = burst_rate_hz / 1000.0  # per-ms arrival probability
    t = 0
    while t < duration_ms:
        if rng.random() < p_arrival:
            duration = max(1, int(rng.expovariate(1.0 / burst_ms_mean)))
            amplitude = rng.lognormvariate(0.0, 0.6)
            for dt in range(duration):
                if t + dt >= duration_ms:
                    break
                samples[t + dt] += amplitude
            t += duration
        else:
            t += 1

    # Slow fading envelope (node or ambient motion).
    phase = rng.uniform(0, 2 * math.pi)
    for i in range(duration_ms):
        envelope = 0.65 + 0.35 * math.sin(2 * math.pi * i / fading_period_ms + phase)
        samples[i] *= envelope

    # Normalize mean power.
    mean = sum(samples) / len(samples)
    scale = mean_power_w / mean if mean > 0 else 0.0
    samples = [s * scale for s in samples]

    return scalar_clamp(samples), name or f"wifi-seed{seed}"
