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
from bisect import bisect_left
from typing import List

import numpy as np

from .trace import PowerTrace

#: Default mean harvested power (W). Strong-ish Wi-Fi harvesting is in
#: the 100 uW - 1 mW range at close distance.
DEFAULT_MEAN_POWER_W = 450e-6

#: Most doubles :func:`_doubles` takes from one ``getrandbits`` call,
#: whose bit count must fit a C ``int``.
_DOUBLES_PER_DRAW = 1 << 20


def _doubles(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, as float64, in bulk.

    CPython's ``random()`` takes two 32-bit MT19937 words ``a`` and
    ``b`` and returns ``(a >> 5) * 2**26 + (b >> 6)`` over ``2**53``;
    ``getrandbits(k)`` for ``k > 32`` emits its words least significant
    first, in generation order. So one ``getrandbits(64 * n)`` holds
    the words of ``n`` calls of ``random()``, and the generator's state
    afterwards is the same as after those calls."""
    if n > _DOUBLES_PER_DRAW:
        return np.concatenate([
            _doubles(rng, min(_DOUBLES_PER_DRAW, n - done))
            for done in range(0, n, _DOUBLES_PER_DRAW)
        ])
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class _Prefetched(random.Random):
    """A ``random.Random`` whose ``random()`` serves ``buffer`` from
    ``pos`` on, in order, and refills it from its own generator when it
    runs out, so the stdlib's variates consume the prefetched stream.

    Only ``random()``-based methods (``expovariate``,
    ``lognormvariate``, ``uniform``) may be called on it:
    ``getrandbits`` and ``randrange`` read the generator directly and
    would bypass the doubles still in the buffer."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.buffer: List[float] = []
        self.pos = 0

    def random(self) -> float:
        """The next double of the stream."""
        pos = self.pos
        if pos == len(self.buffer):
            self.buffer += _doubles(self, 64).tolist()
        self.pos = pos + 1
        return self.buffer[pos]


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
    if fading_period_ms == 0:
        # The envelope's division raises in Python; numpy's only warns.
        raise ZeroDivisionError("fading_period_ms must be nonzero")
    # The stream is drawn in bulk and each step is an array operation
    # in the order of the per-millisecond loop (tests/golden.py), so
    # every trace is byte-identical to it: the first ``duration_ms``
    # doubles are the floor, the ones after them the arrival tests.
    rng = _Prefetched(seed)
    draws = _doubles(rng, 2 * duration_ms)

    # Background floor: a few percent of the mean, always present.
    samples = 0.05 * (0.5 + draws[:duration_ms])

    # Bursts. The walk jumps from one arrival test to the next; ``t``
    # advances by the non-arrival tests it skips. Durations and
    # amplitudes come from the stdlib variates on the doubles after
    # their test.
    p_arrival = burst_rate_hz / 1000.0  # per-ms arrival probability
    tests = draws[duration_ms:]
    rng.buffer = tests.tolist()
    arrivals = np.flatnonzero(tests < p_arrival).tolist()
    scanned = len(rng.buffer)
    values: List[float] = []  # alternating gaps (0.0) and burst amplitudes
    counts: List[int] = []
    k = covered = t = 0
    while t < duration_ms:
        pos = rng.pos
        k = bisect_left(arrivals, pos, k)
        if k == len(arrivals):
            if scanned == len(rng.buffer):
                # No test left is an arrival: skip them, and draw more
                # if the trace outlasts them.
                step = min(scanned - pos, duration_ms - t)
                t += step
                rng.pos = pos + step
                if t == duration_ms:
                    break
                rng.buffer += _doubles(rng, duration_ms - t).tolist()
            # Scan only the doubles drawn since the last scan (here, or
            # by a variate that emptied the buffer).
            tail = np.array(rng.buffer[scanned:])
            arrivals += (np.flatnonzero(tail < p_arrival) + scanned).tolist()
            scanned = len(rng.buffer)
            continue
        gap = arrivals[k] - pos
        if gap >= duration_ms - t:
            rng.pos = pos + duration_ms - t
            break
        t += gap
        rng.pos = pos + gap + 1
        duration = max(1, int(rng.expovariate(1.0 / burst_ms_mean)))
        amplitude = rng.lognormvariate(0.0, 0.6)
        values += (0.0, amplitude)
        counts += (t - covered, min(duration, duration_ms - t))
        t += duration
        covered = t
    if values:
        # Adding 0.0 leaves the positive floor unchanged, so each sample
        # gets exactly the one addition the loop gave it.
        values.append(0.0)
        counts.append(max(0, duration_ms - covered))
        samples += np.repeat(values, counts)

    # Slow fading envelope (node or ambient motion). ``math.sin`` per
    # element, since no numpy build promises ``np.sin`` equals libm.
    phase = rng.uniform(0, 2 * math.pi)
    args = 2 * math.pi * np.arange(duration_ms, dtype=np.float64) / fading_period_ms + phase
    sines = np.fromiter(map(math.sin, args.tolist()), np.float64, duration_ms)
    samples *= 0.65 + 0.35 * sines

    # Normalize mean power. The builtin ``sum``, whose float algorithm
    # differs between interpreter versions (compensated from 3.12 on),
    # is the loop's own.
    mean = sum(samples.tolist()) / duration_ms
    scale = mean_power_w / mean if mean > 0 else 0.0

    return PowerTrace(samples * scale, name=name or f"wifi-seed{seed}")


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
