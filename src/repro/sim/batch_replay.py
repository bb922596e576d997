"""The replay engine's WAR index.

The replay engine (:mod:`repro.runtime.batch_executor`) walks one
commit log for every (trace, offset) intermittent sample of a
configuration. Its per-lane bookkeeping stays scalar Python on the
*real* power/policy objects (bit-exactness by construction); the one
data-parallel hot spot lives here:

:class:`BatchIndex.war_from <BatchIndex>` answers Clank's
write-after-read scan in O(access rows) from a byte-expanded
prev-store / next-store table instead of an O(segment x bytes) forward
walk. For each byte, a WAR trigger from start ``s`` exists iff the
first access at/after ``s`` is a load whose previous store lies before
``s``; the trigger is that load's next store. The verdict feeds the
record's ordinary ``_war_memo``
(:meth:`~repro.sim.replay.ReplayRecord.next_war_before`), so every lane
and policy shares memoized, identical integers. The tests check it
against a one-shot scalar scan (``tests/golden.py``).
"""

from __future__ import annotations

import numpy as np

#: The store kind of ``ReplayRecord.pc_kind`` (see ``access_tables``).
_STORE = 2


class BatchIndex:
    """Per-record vectorized index: the WAR trigger tables."""

    __slots__ = ("length", "war_pos", "war_ps", "war_ns")

    def __init__(self, record) -> None:
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
        written = _expand(addrs[stores], sizes[stores])[0]
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
        byte, row = _expand(addrs[keep], sizes)
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


def _expand(addrs, sizes):
    """``(byte, row)``: every byte ``addrs[row] + k`` (``k < sizes[row]``),
    rows in order."""
    total = int(sizes.sum())
    row = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    byte = addrs[row] + (np.arange(total, dtype=np.int64) - starts[row])
    return byte, row
