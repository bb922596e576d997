"""Byte-addressable memory with volatile and non-volatile regions.

Energy-harvesting platforms pair a volatile SRAM with non-volatile
storage (Flash/FRAM). Following Clank's system model, *main data memory
is non-volatile* (it survives power outages), while the register file
and pipeline state of a conventional core are volatile. The NVP keeps
everything non-volatile.

The default memory map is::

    0x0000_0000 .. NVM  (FRAM-like; survives outages)   1 MiB
    0x2000_0000 .. SRAM (volatile; cleared on outage)   256 KiB

Words are little-endian. All accesses go through :class:`Memory` so the
intermittent runtimes can observe them (Clank's idempotency tracking
hooks in at the CPU level).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

NVM_BASE = 0x0000_0000
NVM_SIZE = 1 << 20
SRAM_BASE = 0x2000_0000
SRAM_SIZE = 256 << 10

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned accesses."""


def _zero_fill(buffer: bytearray) -> None:
    """Zero ``buffer`` in place with a write-only fill, which reads no
    source and needs no block of zeros."""
    np.frombuffer(buffer, np.uint8).fill(0)


class Region:
    """One contiguous memory region."""

    __slots__ = ("name", "base", "size", "volatile", "data")

    #: RAM regions have no device; DeviceRegion (peripherals) overrides.
    device = None

    def __init__(self, name: str, base: int, size: int, volatile: bool):
        self.name = name
        self.base = base
        self.size = size
        self.volatile = volatile
        self.data = bytearray(size)

    def contains(self, addr: int, length: int = 1) -> bool:
        """Whether ``[addr, addr+length)`` lies fully in this region."""
        return self.base <= addr and addr + length <= self.base + self.size

    def clear(self) -> None:
        """Zero the region's bytes (what an outage does to SRAM)."""
        # Zero in place: decoded handlers and bulk helpers may hold a
        # reference to ``data``, and an outage must wipe the bytes they
        # see, not swap in a fresh buffer behind their backs.
        _zero_fill(self.data)


class Memory:
    """Flat address space composed of regions."""

    def __init__(self, regions: Optional[Sequence[Region]] = None):
        if regions is None:
            regions = (
                Region("nvm", NVM_BASE, NVM_SIZE, volatile=False),
                Region("sram", SRAM_BASE, SRAM_SIZE, volatile=True),
            )
        self.regions: List[Region] = list(regions)
        self._by_name: Dict[str, Region] = {r.name: r for r in self.regions}

    # -- region management --------------------------------------------------

    def region(self, name: str) -> Region:
        """The region registered under ``name`` (KeyError if absent)."""
        return self._by_name[name]

    def _find(self, addr: int, length: int) -> Region:
        # contains() inlined: this is the hottest path in the simulator
        # (every load/store goes through it).
        for region in self.regions:
            base = region.base
            if base <= addr and addr + length <= base + region.size:
                return region
        raise MemoryError_(f"access to unmapped address {addr:#010x} (+{length})")

    def power_loss(self) -> None:
        """Model a power outage: volatile regions lose their contents."""
        for region in self.regions:
            if region.volatile:
                region.clear()

    def is_nonvolatile(self, addr: int) -> bool:
        """Whether ``addr`` maps to a region that survives outages."""
        return not self._find(addr, 1).volatile

    # -- scalar access ------------------------------------------------------

    def load_word(self, addr: int) -> int:
        """Read a 32-bit little-endian word at ``addr``."""
        region = self._find(addr, 4)
        if region.device is not None:
            return region.device.read(addr - region.base, 4) & 0xFFFFFFFF
        off = addr - region.base
        return _U32.unpack_from(region.data, off)[0]

    def store_word(self, addr: int, value: int) -> None:
        """Write a 32-bit little-endian word at ``addr``."""
        region = self._find(addr, 4)
        if region.device is not None:
            region.device.write(addr - region.base, 4, value & 0xFFFFFFFF)
            return
        _U32.pack_into(region.data, addr - region.base, value & 0xFFFFFFFF)

    def load_half(self, addr: int) -> int:
        """Read a 16-bit little-endian halfword at ``addr``."""
        region = self._find(addr, 2)
        if region.device is not None:
            return region.device.read(addr - region.base, 2) & 0xFFFF
        return _U16.unpack_from(region.data, addr - region.base)[0]

    def store_half(self, addr: int, value: int) -> None:
        """Write a 16-bit little-endian halfword at ``addr``."""
        region = self._find(addr, 2)
        if region.device is not None:
            region.device.write(addr - region.base, 2, value & 0xFFFF)
            return
        _U16.pack_into(region.data, addr - region.base, value & 0xFFFF)

    def load_byte(self, addr: int) -> int:
        """Read one byte at ``addr``."""
        region = self._find(addr, 1)
        if region.device is not None:
            return region.device.read(addr - region.base, 1) & 0xFF
        return region.data[addr - region.base]

    def store_byte(self, addr: int, value: int) -> None:
        """Write one byte at ``addr``."""
        region = self._find(addr, 1)
        if region.device is not None:
            region.device.write(addr - region.base, 1, value & 0xFF)
            return
        region.data[addr - region.base] = value & 0xFF

    # -- bulk helpers (used by workloads to stage inputs/outputs) ------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Copy raw bytes into one region (must not span regions)."""
        region = self._find(addr, len(data))
        off = addr - region.base
        region.data[off:off + len(data)] = data

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Copy ``length`` raw bytes out of one region."""
        region = self._find(addr, length)
        off = addr - region.base
        return bytes(region.data[off:off + length])

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        """Stage a sequence of 32-bit words starting at ``addr``."""
        values = list(values)
        packed = b"".join(_U32.pack(v & 0xFFFFFFFF) for v in values)
        self.write_bytes(addr, packed)

    def read_words(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive 32-bit words from ``addr``."""
        raw = self.read_bytes(addr, count * 4)
        return [x[0] for x in _U32.iter_unpack(raw)]

    def write_halves(self, addr: int, values: Iterable[int]) -> None:
        """Stage a sequence of 16-bit halfwords starting at ``addr``."""
        packed = b"".join(_U16.pack(v & 0xFFFF) for v in values)
        self.write_bytes(addr, packed)

    def read_halves(self, addr: int, count: int) -> List[int]:
        """Read ``count`` consecutive 16-bit halfwords from ``addr``."""
        raw = self.read_bytes(addr, count * 2)
        return [x[0] for x in _U16.iter_unpack(raw)]

    # -- snapshots (for checkpointing volatile state) -------------------------

    def snapshot_volatile(self) -> Dict[str, bytes]:
        """Copy every volatile region's bytes (checkpoint payload)."""
        return {r.name: bytes(r.data) for r in self.regions if r.volatile}

    def restore_volatile(self, snap: Dict[str, bytes]) -> None:
        """Write a :meth:`snapshot_volatile` payload back in place."""
        for name, data in snap.items():
            region = self._by_name[name]
            region.data[:] = data

    def snapshot_nonvolatile(self) -> Dict[str, bytes]:
        """Copy every non-volatile region's bytes.

        The mirror of :meth:`snapshot_volatile`, used by the chaos
        engine's torn-commit injector: a commit interrupted by power
        failure rewinds durable state to the commit point."""
        return {r.name: bytes(r.data) for r in self.regions if not r.volatile}

    def restore_nonvolatile(self, snap: Dict[str, bytes]) -> None:
        """Write a :meth:`snapshot_nonvolatile` payload back in place."""
        for name, data in snap.items():
            region = self._by_name[name]
            region.data[:] = data


def default_memory() -> Memory:
    """A fresh memory with the standard NVM + SRAM map."""
    return Memory()


def word_range(base: int, count: int) -> Tuple[int, int]:
    """(first address, one-past-last address) of ``count`` words at ``base``."""
    return base, base + 4 * count
