"""Memory-mapped peripherals.

Energy-harvesting nodes read their inputs from sensor front ends, not
from preloaded arrays. This module adds a memory-mapped sensor FIFO so
programs can poll and drain samples the way device firmware does::

    SENSOR_BASE + 0x0   DATA    read pops the next sample (0 if empty)
    SENSOR_BASE + 0x4   STATUS  number of buffered samples
    SENSOR_BASE + 0x8   DROPPED samples lost to FIFO overflow

The FIFO belongs to the *sensor*, which has its own supply: its
contents survive CPU power outages (the region is non-volatile).

Intermittency hazard (and why the tests exercise it): a DATA read is
*destructive*. On a backup-and-replay runtime (Clank/Hibernus), a crash
after the read replays it and pops a second sample — the classic
peripheral/checkpoint interaction. Backup-every-cycle NVPs never replay
and are safe; checkpointing firmware must drain the FIFO into NVM in a
transaction instead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable

from .memory import Memory, Region

SENSOR_BASE = 0x4000_0000
SENSOR_SIZE = 0x100

DATA_OFFSET = 0x0
STATUS_OFFSET = 0x4
DROPPED_OFFSET = 0x8


class SensorFIFO:
    """A sampled sensor with a bounded hardware FIFO."""

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fifo: Deque[int] = deque()
        self.dropped = 0
        self.reads = 0

    # -- producer side (the physical world) ---------------------------------

    def push(self, sample: int) -> bool:
        """Deliver one sample; returns False if the FIFO overflowed."""
        if len(self._fifo) >= self.capacity:
            self.dropped += 1
            return False
        self._fifo.append(sample & 0xFFFFFFFF)
        return True

    def push_many(self, samples: Iterable[int]) -> None:
        """Push each of ``samples`` in order, as :meth:`push` does."""
        for sample in samples:
            self.push(sample)

    @property
    def available(self) -> int:
        """Samples waiting in the FIFO."""
        return len(self._fifo)

    # -- MMIO device interface ------------------------------------------------

    def read(self, offset: int, size: int) -> int:
        """MMIO load: the data register pops the oldest sample (0 when
        empty), the status register reads the fill level and the
        dropped register the overflow count; other offsets read 0."""
        if offset == DATA_OFFSET:
            self.reads += 1
            return self._fifo.popleft() if self._fifo else 0
        if offset == STATUS_OFFSET:
            return len(self._fifo)
        if offset == DROPPED_OFFSET:
            return self.dropped
        return 0

    def write(self, offset: int, size: int, value: int) -> None:
        """MMIO store: accepted and ignored."""
        # Control writes are accepted and ignored (no configurable
        # registers in this model).
        return None


class DeviceRegion(Region):
    """A memory region backed by a device instead of RAM."""

    __slots__ = ("device",)

    def __init__(self, name: str, base: int, size: int, device):
        super().__init__(name, base, size, volatile=False)
        self.device = device

    def clear(self) -> None:  # pragma: no cover - never volatile
        """Nothing to clear: the region is non-volatile and holds no
        RAM."""


def attach_sensor(memory: Memory, sensor: SensorFIFO, base: int = SENSOR_BASE) -> DeviceRegion:
    """Map a sensor FIFO into an existing memory's address space."""
    region = DeviceRegion("sensor", base, SENSOR_SIZE, sensor)
    memory.regions.append(region)
    memory._by_name[region.name] = region
    return region
