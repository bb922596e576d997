"""The golden models of the differential tests.

The harness runs every grid on the replay engine; the interpreter is
the golden model it is checked against. It is selected per sample, by
calling ``_run_sample`` on each spec of a configuration's grid. The
replay engine's WAR horizons come from a vectorized index; its golden
model is the one-shot scalar scan :func:`war_scan`. The Clank/progress
chunk walk keeps its state in locals and books once per chunk; its
golden model is the per-event loop :func:`per_event_run_chunk`. The
off-phase charge loop reads the trace and capacitor into locals; its
golden model is :func:`method_charge_until_on`, one method call per
step. Power traces are synthesized in bulk on numpy arrays; their
golden model is the per-millisecond loop :func:`scalar_wifi_trace`,
with the per-sample clamp :func:`scalar_clamp`.
"""

import math
import random
from array import array
from bisect import bisect_left

from repro.experiments.common import _run_sample, _sample_specs
from repro.observability.tracer import TRACER
from repro.power.supply import SupplyExhausted
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


def per_event_run_chunk(policy, budget):
    """``ClankReplayPolicy.run_chunk`` one event at a time: a WAR query,
    an output-position bisect, an ``advance`` and a skim crossing per
    segment, and the stats booked at each commit. ``policy`` is a
    Clank or progress replay policy; the real walk must leave the same
    state and return the same cycles."""
    record = policy.record
    cum = record.cum_cost
    n = record.length
    cursor = policy.cursor
    consumed = 0
    positions = policy.output_positions
    count = len(positions)
    while cursor < n:
        remaining = budget - consumed
        if remaining <= 0:
            break
        limit = cursor + remaining + 1
        if limit > n:
            limit = n
        war = record.next_war_before(policy.checkpoint_pos, limit)
        out_pos = n
        if count:
            k = bisect_left(positions, cursor)
            if k < count:
                out_pos = positions[k]
        event = war if war < out_pos else out_pos
        stop = event if event < limit else limit
        if cursor < stop:
            j, cost = record.advance(cursor, stop, remaining)
            consumed += cost
            if j != cursor:
                policy._cross(cursor, j)
                cursor = j
            if j < stop:
                break
        if cursor >= n or cursor != event:
            break
        if consumed + record.peek_costs[record.pcs[cursor]] > budget:
            break
        if cursor == out_pos:
            extra = policy.stats.extra
            extra["progress_commits"] = extra.get("progress_commits", 0) + 1
            cause, commit = "progress", policy.commit_cycles
        else:
            cause, commit = "war", policy.checkpoint_cycles
            policy.stats.war_violations += 1
        consumed += (cum[cursor + 1] - cum[cursor]) + commit
        policy.stats.checkpoints += 1
        policy.stats.checkpoint_cycles += commit
        policy.checkpoint_pos = cursor
        policy._war_in_chunk = True
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint", cause=cause, cost=commit,
                position=cursor, runtime=policy.name, engine="replay",
            )
        cursor += 1
    policy.cursor = cursor
    if cursor > policy.max_position:
        policy.max_position = cursor
    return consumed


def method_charge_until_on(supply, max_ms=10_000_000):
    """``PowerSupply.charge_until_on`` through the capacitor's and the
    trace's methods, one call each per millisecond."""
    if supply.on:
        return 0
    waited = 0
    while not supply.capacitor.above_on_threshold:
        supply.capacitor.harvest(supply.trace.energy_at(supply.tick))
        supply.tick += 1
        waited += 1
        if waited > max_ms:
            raise SupplyExhausted(
                f"trace {supply.trace.name!r} cannot reach v_on within {max_ms} ms"
            )
    supply.total_off_ms += waited
    supply.on = True
    return waited


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
