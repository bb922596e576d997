"""Harvested-power traces.

The paper drives its simulations with 1-kHz voltage traces captured
from a Wi-Fi energy-harvesting source (Furlong et al.). We model the
same thing one step earlier in the chain: a trace of *harvested power*
sampled at 1 kHz (one sample per millisecond). The capacitor model
(:mod:`repro.power.capacitor`) integrates this power into stored
energy, which the supply FSM converts into on/off periods.
"""

from __future__ import annotations

import csv
import io
from array import array
from typing import Iterable, List, Sequence

import numpy as np


class PowerTrace:
    """A harvested-power trace: one sample (in watts) per millisecond.

    Samples are held as an ``array('d')``: 8 bytes each rather than a
    boxed Python float plus its list slot."""

    SAMPLE_MS = 1.0

    def __init__(self, samples_w: Sequence[float], name: str = "trace"):
        """Hold ``samples_w`` clamped at zero: NaN, -0.0 and negatives
        become 0.0. A float64 buffer (an ``array('d')`` or ``ndarray``)
        is read as is; any other iterable goes through ``float()`` per
        element, so ints and numeric strings convert and bad values
        raise."""
        if isinstance(samples_w, np.ndarray) and samples_w.dtype == np.float64:
            values = samples_w
        elif isinstance(samples_w, array) and samples_w.typecode == "d":
            values = np.frombuffer(samples_w, np.float64)
        else:
            values = np.fromiter(map(float, samples_w), np.float64)
        # ``v > 0.0`` is false for NaN and -0.0: max(0.0, v) per double.
        self.samples = array("d", np.where(values > 0.0, values, 0.0).tobytes())
        self.name = name

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> float:
        return self.samples[index]

    def power_at(self, tick: int) -> float:
        """Harvested power (W) during millisecond ``tick``.

        Ticks beyond the end of the trace wrap around, so a short trace
        can drive an arbitrarily long simulation (the paper replays each
        trace for the full benchmark run).
        """
        if not self.samples:
            return 0.0
        return self.samples[tick % len(self.samples)]

    def energy_at(self, tick: int) -> float:
        """Energy (J) harvested during millisecond ``tick``."""
        return self.power_at(tick) * (self.SAMPLE_MS / 1000.0)

    def nbytes(self) -> int:
        """Bytes held by the sample array."""
        return len(self.samples) * self.samples.itemsize

    @property
    def duration_ms(self) -> float:
        """Trace length in milliseconds (one sample per ms)."""
        return len(self.samples) * self.SAMPLE_MS

    @property
    def mean_power(self) -> float:
        """Average harvested power (W) over the whole trace."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def peak_power(self) -> float:
        """Maximum single-sample power (W) in the trace."""
        return max(self.samples) if self.samples else 0.0

    def scaled(self, factor: float) -> "PowerTrace":
        """A copy with every sample multiplied by ``factor``."""
        return PowerTrace([s * factor for s in self.samples], name=f"{self.name}*{factor:g}")

    def slice_ms(self, start_ms: int, end_ms: int) -> "PowerTrace":
        """The sub-trace covering ``[start_ms, end_ms)``."""
        return PowerTrace(self.samples[start_ms:end_ms], name=f"{self.name}[{start_ms}:{end_ms}]")

    # -- persistence -----------------------------------------------------------

    def to_csv(self) -> str:
        """Serialize as ``ms,power_w`` CSV text."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["ms", "power_w"])
        for i, sample in enumerate(self.samples):
            writer.writerow([i, f"{sample:.9g}"])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, name: str = "trace") -> "PowerTrace":
        """Parse a trace from :meth:`to_csv`-format CSV text."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or header[:2] != ["ms", "power_w"]:
            raise ValueError("expected header 'ms,power_w'")
        samples = [float(row[1]) for row in reader if row]
        return cls(samples, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerTrace({self.name!r}, {len(self.samples)} ms, "
            f"mean={self.mean_power * 1e6:.1f} uW)"
        )


def constant_trace(power_w: float, duration_ms: int, name: str = "constant") -> PowerTrace:
    """A flat trace — useful for tests and calibration."""
    return PowerTrace([power_w] * duration_ms, name=name)


def square_trace(
    on_power_w: float,
    on_ms: int,
    off_ms: int,
    periods: int,
    name: str = "square",
) -> PowerTrace:
    """Alternating on/off harvest — deterministic outage patterns for tests."""
    samples: List[float] = []
    for _ in range(periods):
        samples.extend([on_power_w] * on_ms)
        samples.extend([0.0] * off_ms)
    return PowerTrace(samples, name=name)


def concat(traces: Iterable[PowerTrace], name: str = "concat") -> PowerTrace:
    """One trace whose samples are all inputs back to back."""
    samples: List[float] = []
    for trace in traces:
        samples.extend(trace.samples)
    return PowerTrace(samples, name=name)


def bundled_traces() -> List["PowerTrace"]:
    """The traces shipped with the library (three 2-second Wi-Fi
    captures at weak/medium/strong mean power), for experiments that
    want fixed inputs rather than seeded synthesis."""
    import importlib.resources as resources

    traces: List[PowerTrace] = []
    package = resources.files(__package__) / "data"
    for entry in sorted(p.name for p in package.iterdir() if p.name.endswith(".csv")):
        text = (package / entry).read_text()
        traces.append(PowerTrace.from_csv(text, name=entry[:-4]))
    return traces
