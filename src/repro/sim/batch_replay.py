"""Vectorized helpers for the replay engine.

The replay engine (:mod:`repro.runtime.batch_executor`) walks one
commit log for every (trace, offset) intermittent sample of a
configuration. Its per-lane bookkeeping stays scalar Python on the
*real* power/policy objects (bit-exactness by construction); the two
data-parallel hot spots live here, each with a proof obligation that
its result is identical — not just close — to the scalar code it
replaces:

* :class:`BatchIndex.war_from <BatchIndex>` — Clank's write-after-read
  scan, answered in O(access rows) from a byte-expanded prev-store /
  next-store table instead of an O(segment x bytes) forward walk. For
  each byte, a WAR trigger from start ``s`` exists iff the first access
  at/after ``s`` is a load whose previous store lies before ``s``; the
  trigger is that load's next store. The verdict feeds the record's
  ordinary ``_war_memo``, so every lane and policy shares memoized,
  identical integers.

* :func:`charge_until_on_fast` — the supply's off-phase charge loop
  fast-forwarded in geometric windows. ``np.cumsum`` accumulates
  sequentially, reproducing the scalar loop's left-to-right float
  rounding exactly; the capacitor's harvest clamp provably cannot bind
  before the threshold crossing (``v_on <= v_max``), so a single clamp
  at the crossing lands on the identical stored energy.

numpy is optional: every entry point degrades to the scalar code path
when it is absent (or ``REPRO_BATCH_NUMPY=0`` forces the fallback).
"""

from __future__ import annotations

import os
from typing import Optional

from ..power.supply import SupplyExhausted

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_LOAD = 1
_STORE = 2


def numpy_or_none():
    """The numpy module, or None when absent / disabled via env."""
    if _np is None or os.environ.get("REPRO_BATCH_NUMPY", "1") == "0":
        return None
    return _np


class BatchIndex:
    """Per-record vectorized index: the WAR trigger tables."""

    __slots__ = ("np", "length", "war_pos", "war_ps", "war_ns")

    def __init__(self, record, np) -> None:
        self.np = np
        self.length = n = record.length
        empty = np.empty(0, dtype=np.int64)
        self.war_pos = self.war_ps = self.war_ns = empty
        if not len(record.acc_pos):
            return
        # Kind and width of each access come from its opcode's entry in
        # the per-PC tables.
        acc = np.frombuffer(record.acc_pos, dtype=np.uint32)
        pcs = np.frombuffer(record.pcs, dtype=np.uint16)[acc]
        kinds = np.frombuffer(record.pc_kind, dtype=np.uint8)[pcs]
        sizes = np.frombuffer(record.pc_size, dtype=np.uint8)[pcs].astype(np.int64)
        addrs = np.frombuffer(record.acc_addr, dtype=np.uint32).astype(np.int64)
        stores = kinds == _STORE
        del pcs, kinds
        if not stores.any():
            return

        # Drop accesses to bytes no store ever writes: such a byte's
        # next store is n, so its rows would be masked below anyway.
        written = _expand(np, addrs[stores], sizes[stores])[0]
        written = np.unique(written)
        touched = np.zeros(addrs.shape, dtype=bool)
        for offset in range(4):
            wide = sizes > offset
            byte = addrs[wide] + offset
            at = np.searchsorted(written, byte)
            np.minimum(at, written.size - 1, out=at)
            touched[wide] |= written[at] == byte
        del written
        keep = np.flatnonzero(touched)
        if keep.size == 0:
            return
        sizes = sizes[keep]
        stores = stores[keep]

        # Byte-expand: one row per (access, byte touched). Rows come out
        # in position order, so a stable sort by byte groups each byte's
        # rows in position order.
        byte, row = _expand(np, addrs[keep], sizes)
        del addrs
        pos = acc[keep].astype(np.int64)[row]
        store = stores[row]
        del row, keep, sizes, stores
        order = np.argsort(byte, kind="stable")
        byte = byte[order]
        pos = pos[order]
        store = store[order]
        del order

        # Group rows by byte; offset each group into a disjoint integer
        # range so one running max/min sweeps all groups at once.
        newg = np.empty(byte.shape, dtype=bool)
        newg[0] = True
        newg[1:] = byte[1:] != byte[:-1]
        del byte
        gid = np.cumsum(newg) - 1
        del newg
        span = n + 2

        # ps: most recent store to the same byte strictly before the row
        # (-1 if none). Exclusive running max, shifted by one row.
        keyed = np.where(store, pos, -1) + gid * span
        run = np.maximum.accumulate(keyed)
        ps = np.empty_like(run)
        ps[0] = -span
        ps[1:] = run[:-1]
        del run
        ps -= gid * span
        np.maximum(ps, -1, out=ps)

        # ns: next store to the same byte strictly after the row
        # (n if none). Exclusive reverse running min, shifted by one.
        keyed = np.where(store, pos, n) + gid * span
        rrun = np.minimum.accumulate(keyed[::-1])[::-1]
        del keyed
        ns = np.empty_like(rrun)
        ns[-1] = (int(gid[-1]) + 2) * span
        ns[:-1] = rrun[1:]
        del rrun
        ns -= gid * span
        np.minimum(ns, n, out=ns)

        # Only load rows whose byte is stored again later can trigger.
        mask = (~store) & (ns < n)
        self.war_pos = pos[mask]
        self.war_ps = ps[mask]
        self.war_ns = ns[mask]

    def nbytes(self) -> int:
        """Bytes held by the WAR tables."""
        return self.war_pos.nbytes + self.war_ps.nbytes + self.war_ns.nbytes

    def war_from(self, start: int) -> int:
        """First WAR store position at/after ``start``, else ``length``.

        A load row triggers for ``start`` iff it lies at/after ``start``
        with no store to its byte since ``start`` (``ps < start``); the
        violation fires at its next store. Rows that are not the first
        access to their byte share that same next store, so the min over
        the masked rows equals the scalar scan's verdict.
        """
        mask = (self.war_pos >= start) & (self.war_ps < start)
        cand = self.war_ns[mask]
        if cand.size:
            return int(cand.min())
        return self.length


def _expand(np, addrs, sizes):
    """``(byte, row)``: every byte ``addrs[row] + k`` (``k < sizes[row]``),
    rows in order."""
    total = int(sizes.sum())
    row = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    byte = addrs[row] + (np.arange(total, dtype=np.int64) - starts[row])
    return byte, row


def build_batch_index(record) -> Optional[BatchIndex]:
    """A :class:`BatchIndex` for ``record``, or None without numpy."""
    np = numpy_or_none()
    if np is None:
        return None
    return BatchIndex(record, np)


def trace_energy_array(trace):
    """Per-millisecond harvest energies of ``trace`` (None sans numpy).

    Computed once per trace and kept on it (``trace.energies``), so the
    array lives and dies with its trace."""
    np = numpy_or_none()
    if np is None:
        return None
    arr = trace.energies
    if arr is None:
        arr = trace.energies = np.asarray(trace.samples, dtype=np.float64) * (
            trace.SAMPLE_MS / 1000.0
        )
    return arr


def charge_until_on_fast(supply, energies, max_ms: int = 10_000_000) -> int:
    """Vector fast-forward of :meth:`PowerSupply.charge_until_on`.

    ``energies`` is the trace's :func:`trace_energy_array` (non-empty).
    Mutates ``supply`` exactly like the scalar loop: same final stored
    energy (identical float rounding — ``np.cumsum`` accumulates
    left-to-right and the harvest clamp cannot bind before the
    crossing), same tick/off-ms accounting, same
    :class:`SupplyExhausted` boundary (the scalar loop raises when the
    wait counter *exceeds* ``max_ms``, even if that harvest crossed the
    threshold). On raise the supply state is torn; the lane demotes and
    its sample re-runs on the interpreter, so it is never observed.
    """
    if supply.on:
        return 0
    np = _np
    cap = supply.capacitor
    trace = supply.trace
    length = energies.shape[0]
    capacitance = cap.capacitance
    v_on = cap.v_on
    waited = 0
    # Scalar head: most outages end within a few milliseconds, where
    # one numpy window costs more than the handful of harvests it
    # replaces. Identical op-for-op to PowerSupply.charge_until_on,
    # including raising *after* the harvest that trips max_ms.
    while waited < 8:
        if cap.above_on_threshold:
            supply.total_off_ms += waited
            supply.on = True
            return waited
        cap.harvest(trace.energy_at(supply.tick))
        supply.tick += 1
        waited += 1
        if waited > max_ms:
            raise SupplyExhausted(
                f"trace {supply.trace.name!r} cannot reach v_on "
                f"within {max_ms} ms"
            )
    window = 64
    while True:
        if cap.above_on_threshold:
            break
        remaining = max_ms + 1 - waited
        w = window if window < remaining else remaining
        start = supply.tick % length
        idx = (start + np.arange(w, dtype=np.int64)) % length
        seq = np.empty(w + 1, dtype=np.float64)
        seq[0] = cap.energy
        seq[1:] = energies[idx]
        partial = np.cumsum(seq)[1:]
        # Same float expression as Capacitor.voltage: sqrt(2*E/C) with
        # multiply-then-divide ordering (np.sqrt and math.sqrt are both
        # IEEE correctly rounded).
        crossed = np.flatnonzero(np.sqrt(2.0 * partial / capacitance) >= v_on)
        if crossed.size:
            steps = int(crossed[0]) + 1
            if waited + steps > max_ms:
                raise SupplyExhausted(
                    f"trace {supply.trace.name!r} cannot reach v_on "
                    f"within {max_ms} ms"
                )
            cap.energy = min(cap._e_max, float(partial[crossed[0]]))
            supply.tick += steps
            waited += steps
            break
        if w == remaining:
            raise SupplyExhausted(
                f"trace {supply.trace.name!r} cannot reach v_on "
                f"within {max_ms} ms"
            )
        cap.energy = min(cap._e_max, float(partial[-1]))
        supply.tick += w
        waited += w
        if window < (1 << 20):
            window *= 2
    supply.total_off_ms += waited
    supply.on = True
    return waited
