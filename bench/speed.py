"""Host speed, sampled with two fixed probes, and timings rescaled to a
reference speed.

The benchmark runs on hosts whose CPUs are shared. On a 2-vCPU VM the
same Python loop took anywhere from 0.7x to 1.3x its median time within
a minute, and the median moved by half between hours; every timing the
program makes moves with it. Two kinds of slowness move independently
there, so there are two probes, each timed at points where the program
is idle (between requests, between configurations, around boots):

* :attr:`Speedometer.compute` times :func:`probe_loop`, a pure-Python
  loop. In 10 s windows the time of a fixed ``run_benchmark_suite``
  call spread by 0.05 (interquartile range over median); its ratio to
  this probe by 0.016, its ratio to the round-trip probe by 0.115.
* :attr:`Speedometer.round_trip` times :data:`ECHO_ROUNDS` lines echoed
  by a helper process (``echo.py``): process wake-ups and socket calls.
  In the same windows the median store hit spread by 0.12; its ratio
  to this probe by 0.02-0.03, its ratio to the loop by 0.085.

A computed answer (a store miss, a grid configuration, a boot) is
rescaled by the compute probe, a store hit by the round-trip probe:
:meth:`Series.scaled` reads an interval as if the probe nearest to it
had taken its reference time. The probes are benchmark code, never the
program's, so a change to the program moves scaled timings exactly as
it moves raw ones.
"""

from __future__ import annotations

import bisect
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

#: Rounds of :func:`probe_loop`: about 2 ms on a 2.0 GHz Xeon vCPU.
PROBE_ROUNDS = 12_000
#: Lines echoed per round-trip probe: about 1.5 ms on the same host.
ECHO_ROUNDS = 4
ECHO_LINE = b'{"op": "ping", "id": 1, "job": {"workload": "MatMul", "scale": "default"}}\n'
#: The probes' times at the reference speed. They only set the scale: a
#: scaled timing is the time the work would take on a host where the
#: probe takes exactly this long.
COMPUTE_REF_S = 0.002
ROUND_TRIP_REF_S = 0.0015
#: A scaled interval is divided by the median of this many probes
#: nearest to its midpoint.
NEAREST = 9
#: :meth:`Speedometer.tick` samples at most this often.
PROBE_EVERY_S = 0.05


def probe_loop(rounds: int = PROBE_ROUNDS) -> int:
    """Integer arithmetic and dict stores, like an interpreter's work."""
    table = {}
    total = 0
    for i in range(rounds):
        total += (i * i) % 7
        table[i & 255] = total
    return total


class EchoPeer:
    """A helper process that echoes lines back over a socket pair."""

    def __init__(self) -> None:
        ours, theirs = socket.socketpair()
        with theirs:
            self._proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("echo.py")), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL,
            )
        self._sock = ours
        self._stream = ours.makefile("rwb", buffering=0)

    def round_trips(self) -> None:
        for _ in range(ECHO_ROUNDS):
            self._stream.write(ECHO_LINE)
            if self._stream.readline() != ECHO_LINE:
                raise RuntimeError("echo peer answered wrongly")

    def close(self) -> None:
        """Close the socket, which ends the peer, and wait for it."""
        self._stream.close()
        self._sock.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class Series:
    """One probe's times, with the moment each was taken."""

    def __init__(self, ref_s: float) -> None:
        self.ref_s = ref_s
        self.samples: List[Tuple[float, float]] = []
        self._sorted = True

    def add(self, moment: float, seconds: float) -> None:
        if self.samples and moment < self.samples[-1][0]:
            self._sorted = False
        self.samples.append((moment, seconds))

    def merge(self, samples: Iterable[Tuple[float, float]]) -> None:
        """Add samples taken by another process (``perf_counter`` is the
        system-wide monotonic clock, so their moments compare)."""
        for moment, seconds in samples:
            self.add(moment, seconds)

    def factor(self, at: float) -> float:
        """The reference time over the median probe time nearest ``at``."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        if not self._sorted:
            self.samples.sort()
            self._sorted = True
        index = bisect.bisect_left(self.samples, (at,))
        low = max(0, min(index - NEAREST // 2, len(self.samples) - NEAREST))
        nearest = [seconds for _moment, seconds in self.samples[low:low + NEAREST]]
        return self.ref_s / statistics.median(nearest)

    def scaled(self, start: float, end: float) -> float:
        """The interval ``end - start`` at the reference speed."""
        return (end - start) * self.factor((start + end) / 2)

    def speed(self) -> float:
        """The host's median speed over the run, relative to reference."""
        return self.ref_s / statistics.median(s for _m, s in self.samples)


class Speedometer:
    """Both probes of one run. Without an echo peer (in a process that
    makes no round trips) only the compute probe is sampled."""

    def __init__(self, peer: Optional[EchoPeer] = None) -> None:
        self.compute = Series(COMPUTE_REF_S)
        self.round_trip = Series(ROUND_TRIP_REF_S)
        self._peer = peer
        self._last = float("-inf")

    def sample(self) -> None:
        """Time each probe once, now."""
        began = time.perf_counter()
        probe_loop()
        ended = time.perf_counter()
        self.compute.add((began + ended) / 2, ended - began)
        if self._peer is not None:
            began = ended
            self._peer.round_trips()
            ended = time.perf_counter()
            self.round_trip.add((began + ended) / 2, ended - began)
        self._last = ended

    def tick(self) -> bool:
        """Sample unless the last sample is less than PROBE_EVERY_S old;
        called at every idle point of a loop. True when it sampled."""
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return False
        self.sample()
        return True

    def close(self) -> None:
        if self._peer is not None:
            self._peer.close()
            self._peer = None
