"""Synthesis of realistic RF (Wi-Fi) harvesting traces.

The paper's input traces were captured from a live Wi-Fi harvester
(Furlong et al., ENSsys'16); we do not have those captures, so we
synthesize traces with the same qualitative structure: RF harvest is
*bursty* — the harvester sees packets/beacon bursts with lognormal
amplitudes, separated by near-dead gaps, with slow large-scale fading.
The absolute level is set so a 10 uF capacitor yields millisecond-scale
on-periods, matching the paper's observation that harvested sources
power these devices "for up to a few milliseconds at a time".
"""

from __future__ import annotations

import math
import random
from typing import List

from .trace import PowerTrace

#: Default mean harvested power (W). Strong-ish Wi-Fi harvesting is in
#: the 100 uW - 1 mW range at close distance.
DEFAULT_MEAN_POWER_W = 450e-6


def wifi_trace(
    duration_ms: int = 4000,
    seed: int = 0,
    mean_power_w: float = DEFAULT_MEAN_POWER_W,
    burst_rate_hz: float = 40.0,
    burst_ms_mean: float = 8.0,
    fading_period_ms: float = 700.0,
    name: str = "",
) -> PowerTrace:
    """Synthesize one bursty Wi-Fi-like harvest trace.

    The generator draws burst arrivals from a Poisson process
    (``burst_rate_hz``), burst durations from a geometric distribution
    (mean ``burst_ms_mean``) and burst powers from a lognormal, then
    modulates everything with a slow sinusoidal fading envelope and
    renormalizes so the trace's mean power equals ``mean_power_w``.
    """
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

    return PowerTrace(samples, name=name or f"wifi-seed{seed}")


def paper_trace(
    index: int,
    count: int = 9,
    duration_ms: int = 4000,
    base_seed: int = 100,
    mean_power_w: float = DEFAULT_MEAN_POWER_W,
) -> PowerTrace:
    """Trace ``index`` of :func:`paper_traces` with the same arguments.

    Each trace draws only from its own seed (``base_seed + index``), so
    one can be synthesized without the others and equals its entry in
    the full list sample for sample."""
    factor = 0.6 + 0.8 * (index / max(1, count - 1))  # 0.6x .. 1.4x
    return wifi_trace(
        duration_ms=duration_ms,
        seed=base_seed + index,
        mean_power_w=mean_power_w * factor,
        name=f"wifi-{index}",
    )


def paper_traces(
    count: int = 9,
    duration_ms: int = 4000,
    base_seed: int = 100,
    mean_power_w: float = DEFAULT_MEAN_POWER_W,
) -> List[PowerTrace]:
    """The paper evaluates on 9 different voltage traces.

    We generate ``count`` traces with distinct seeds and mean powers
    spread +/-40% around ``mean_power_w`` so the suite covers weak and
    strong harvesting conditions.
    """
    return [
        paper_trace(i, count, duration_ms, base_seed, mean_power_w)
        for i in range(count)
    ]
