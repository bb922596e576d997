"""Record-once/replay-per-trace support for the experiment grid.

Every intermittent sample of one (workload, scale, mode, bits)
configuration executes the *same deterministic instruction stream* —
the power trace only decides where outages cut it. :func:`record_run`
therefore executes the program once under continuous power on the fast
interpreter and captures a **commit log**:

* the retired PC and cycle cost of every instruction (stored as a
  cumulative cost prefix sum, so the cost of any stream segment is one
  subtraction and "how far does this budget reach" is one bisect);
* every memory access (kind/address/size) — the raw material for
  replaying Clank's write-after-read idempotency tracking over log
  segments instead of per-byte hook calls;
* a store log (position, address, size, value read back after the
  store committed) — enough to rebuild the NVM image at any stream
  position from a fresh ``make_cpu`` image;
* keyframes every ``keyframe_interval`` instructions (registers, flags
  and PC *before* that instruction), so the architectural state at an
  arbitrary position is one keyframe restore plus at most one interval
  of live stepping;
* skim-register arm events (``SKM`` retires) and the final outputs.

The log is consumed by the replay engine
(:func:`repro.runtime.batch_executor.run_batch_group`), which re-runs
the intermittent executor's control flow for every sample of the
configuration against pre-recorded costs instead of interpreting
instructions. The record is only marked
*replayable* when replay can be bit-exact: a plain functional-unit
configuration (the multiplier memo table and zero-skipping make cycle
costs depend on execution history, which re-execution after an outage
would diverge from) and all memory traffic confined to non-volatile
RAM (volatile regions are wiped on outages and device regions may have
read side effects, neither of which the log models).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from .superblock import record_superblocks

#: Instructions between architectural keyframes. Reconstructing the
#: state at an arbitrary position (the skim handoff does this once per
#: skimmed sample) costs at most this many live steps; each keyframe
#: costs a few hundred bytes. 256 keeps reconstruction ~free while the
#: keyframe store stays well under the access log's own footprint.
DEFAULT_KEYFRAME_INTERVAL = 256

_LOAD = 1
_STORE = 2


class ReplayDiverged(Exception):
    """The log cannot reproduce this sample exactly; replay it live.

    Raised when the runtime's policy would drive execution off the
    recorded stream — e.g. Hibernus rewinding into a non-idempotent
    segment whose re-execution reads values later stores overwrote.
    Callers catch it and fall back to the interpreter path."""


class ReplayRecord:
    """The commit log of one continuous run (see module docstring)."""

    __slots__ = (
        "pcs",
        "cum_cost",
        "mem_kind",
        "mem_addr",
        "mem_size",
        "store_pos",
        "store_addr",
        "store_size",
        "store_value",
        "skim_pos",
        "skim_target",
        "peek_costs",
        "keyframes",
        "keyframe_interval",
        "length",
        "final_outputs",
        "replayable",
        "reason",
        "batch",
        "_progress_memo",
        "_war_memo",
        "_war_scans",
        "_mat_cache",
        "_kf_images",
    )

    def __init__(self, keyframe_interval: int):
        self.pcs = array("i")
        #: cum_cost[j] = cycles to execute stream positions [0, j).
        self.cum_cost = array("q", [0])
        self.mem_kind = array("b")
        self.mem_addr = array("I")
        self.mem_size = array("b")
        self.store_pos = array("q")
        self.store_addr = array("I")
        self.store_size = array("b")
        self.store_value = array("I")
        self.skim_pos: List[int] = []
        self.skim_target: List[int] = []
        #: Worst-case cost per *program counter* (shared with the
        #: decoded program); the executor's commit rule needs it.
        self.peek_costs: List[int] = []
        #: (position, regs, flags, pc) with state *before* the
        #: instruction at ``position`` executes.
        self.keyframes: List[Tuple[int, Tuple[int, ...], tuple, int]] = []
        self.keyframe_interval = keyframe_interval
        self.length = 0
        self.final_outputs: Dict[str, List[int]] = {}
        self.replayable = True
        self.reason = ""
        #: Optional vectorized index (repro.sim.batch_replay.BatchIndex)
        #: attached by the replay engine; None (or the False sentinel
        #: when numpy is unavailable) falls back to the scalar scans.
        self.batch = None
        #: Output-store positions per output-range tuple, memoized for
        #: the progress policy (repro.runtime.progress).
        self._progress_memo: Dict[tuple, List[int]] = {}
        self._war_memo: Dict[int, int] = {}
        #: In-flight WAR scans: start -> [frontier, read_first, written].
        self._war_scans: Dict[int, list] = {}
        self._mat_cache: Optional[tuple] = None
        self._kf_images: dict = {}

    # -- segment queries ----------------------------------------------------

    def segment_cost(self, start: int, end: int) -> int:
        """Cycles consumed by stream positions [start, end)."""
        return self.cum_cost[end] - self.cum_cost[start]

    def advance(self, cursor: int, stop: int, budget: int) -> Tuple[int, int]:
        """Furthest commit point within ``budget`` cycles: (position, cost).

        Mirrors ``CPU.run_cycles`` over positions [cursor, stop): an
        instruction commits only if its *worst-case* cost fits the
        remaining budget, but consumes its *actual* recorded cost. One
        bisect on the cost prefix sums replaces the per-instruction
        loop. The two rules only disagree when the actual costs land
        exactly on the budget and the next instruction is an untaken
        conditional branch (worst 2, actual 1) — ``record_run``
        guarantees worst - actual <= 1 — so a single boundary check
        after the bisect restores exactness.
        """
        if budget <= 0:
            return cursor, 0
        cum = self.cum_cost
        base = cum[cursor]
        j = bisect_right(cum, base + budget, cursor, stop + 1) - 1
        if j > cursor and cum[j] - base == budget:
            prev = j - 1
            if self.peek_costs[self.pcs[prev]] > cum[j] - cum[prev]:
                j = prev
        return j, cum[j] - base

    def next_war(self, start: int) -> int:
        """First WAR-violating store position at/after a fresh start.

        Simulates Clank's read-first/written byte tracking from empty
        sets at ``start`` (a checkpoint or restore point) over the
        recorded accesses; returns the position of the first store that
        hits a read-first byte — where Clank checkpoints *before* the
        store commits — or ``length`` if the stream halts first.
        """
        return self.next_war_before(start, self.length)

    def next_war_before(self, start: int, limit: int) -> int:
        """First WAR store position in [start, limit), else ``limit``.

        Like :meth:`next_war` but never scans past ``limit`` — the
        replay policies bound ``limit`` by how far the current budget
        can possibly reach, so unexplored stream tails cost nothing.
        The scan state per ``start`` persists across calls (and the
        final verdict is memoized), making repeated queries with a
        growing horizon amortized O(1) per stream position."""
        final = self._war_memo.get(start)
        if final is not None:
            return final if final < limit else limit
        batch = self.batch
        if batch:
            # The vectorized index answers the *unbounded* query in one
            # shot; memoize the verdict so every later call (from any
            # lane of any group) takes the O(1) branch above. The
            # verdicts are identical ints to what the incremental scan
            # would eventually converge on.
            final = batch.war_from(start)
            self._war_memo[start] = final
            self._war_scans.pop(start, None)
            return final if final < limit else limit
        if limit > self.length:
            limit = self.length
        if limit <= start:
            return limit
        state = self._war_scans.get(start)
        if state is None:
            state = self._war_scans[start] = [start, set(), set()]
        pos = state[0]
        if pos >= limit:
            return limit
        read_first = state[1]
        written = state[2]
        kinds = self.mem_kind
        addrs = self.mem_addr
        sizes = self.mem_size
        while pos < limit:
            kind = kinds[pos]
            if kind:
                addr = addrs[pos]
                size = sizes[pos]
                if kind == _LOAD:
                    for byte in range(addr, addr + size):
                        if byte not in written:
                            read_first.add(byte)
                else:
                    hit = False
                    for byte in range(addr, addr + size):
                        if byte in read_first:
                            hit = True
                            break
                    if hit:
                        self._war_memo[start] = pos
                        del self._war_scans[start]
                        return pos
                    written.update(range(addr, addr + size))
            pos += 1
        state[0] = pos
        if pos >= self.length:
            self._war_memo[start] = self.length
            del self._war_scans[start]
        return limit

    def segment_idempotent(self, start: int, end: int) -> bool:
        """True if re-executing [start, end) re-reads only original values.

        Exactly the condition under which a runtime may rewind into the
        segment while memory already reflects execution up to ``end``
        (Hibernus after an outage that skipped the snapshot)."""
        return self.next_war_before(start, end) >= end

    def skim_events_in(self, start: int, end: int) -> Tuple[int, Optional[int]]:
        """(count, last target) of SKM retires in positions [start, end)."""
        lo = bisect_right(self.skim_pos, start - 1)
        hi = bisect_right(self.skim_pos, end - 1)
        if hi == lo:
            return 0, None
        return hi - lo, self.skim_target[hi - 1]

    # -- state reconstruction ----------------------------------------------

    def apply_stores(self, memory, start: int, end: int) -> None:
        """Apply recorded stores with position in [start, end) to ``memory``."""
        positions = self.store_pos
        lo = bisect_right(positions, start - 1)
        hi = bisect_right(positions, end - 1)
        addrs = self.store_addr
        sizes = self.store_size
        values = self.store_value
        for i in range(lo, hi):
            size = sizes[i]
            if size == 4:
                memory.store_word(addrs[i], values[i])
            elif size == 2:
                memory.store_half(addrs[i], values[i])
            else:
                memory.store_byte(addrs[i], values[i])

    def materialize_cpu(self, kernel, inputs, reg_pos: int, mem_pos: int):
        """A live CPU with registers/flags/PC at ``reg_pos`` and memory
        at ``mem_pos`` (both stream positions; ``mem_pos >= reg_pos``).

        Rebuilds the initial image with ``kernel.make_cpu`` (staging is
        deterministic), restores the nearest keyframe at/before
        ``reg_pos``, live-steps the gap (at most one keyframe interval;
        the stepping itself re-applies the stores it crosses), then
        fast-applies the remaining store log up to ``mem_pos``. Used for
        the skim-point handoff to live interpretation and for reading
        outputs of runs that did not complete.

        The CPU (with its decoded handlers) and the initial memory
        image are cached on the record: each call resets the cached
        instance in place, so callers must be done with the previous
        materialization when they ask for the next one (the experiment
        harness runs samples strictly one at a time).
        """
        cache = self._mat_cache
        if cache is not None and cache[0] is kernel and cache[1] is inputs:
            cpu = cache[2]
            cpu.load_hook = None
            cpu.store_hook = None
            cpu.skim_hook = None
        else:
            cpu = kernel.make_cpu(inputs)
            images = tuple(
                bytes(r.data) if r.device is None else None
                for r in cpu.memory.regions
            )
            self._mat_cache = (kernel, inputs, cpu, images)
            self._kf_images = {}
        index = bisect_right(self.keyframes, reg_pos, key=lambda kf: kf[0]) - 1
        kf_pos, kf_regs, kf_flags, kf_pc = self.keyframes[index]
        # Memory at a keyframe is a pure function of the keyframe, so
        # the store-log prefix [0, kf_pos) replays once per keyframe and
        # later materializations restore the snapshot bytes directly —
        # the replay engine materializes many lanes per record.
        snap = self._kf_images.get(index)
        if snap is None:
            for region, image in zip(cpu.memory.regions, self._mat_cache[3]):
                if image is not None:
                    region.data[:] = image
            self.apply_stores(cpu.memory, 0, kf_pos)
            self._kf_images[index] = tuple(
                bytes(r.data) if r.device is None else None
                for r in cpu.memory.regions
            )
        else:
            for region, image in zip(cpu.memory.regions, snap):
                if image is not None:
                    region.data[:] = image
        cpu.regs.restore(list(kf_regs))
        cpu.flags.restore(kf_flags)
        cpu.pc = kf_pc
        cpu.halted = False
        for _ in range(reg_pos - kf_pos):
            cpu.step()
        self.apply_stores(cpu.memory, reg_pos, mem_pos)
        return cpu

    def state_at(self, position: int) -> Tuple[List[int], tuple, int]:
        """(regs, flags, pc) before the instruction at ``position``.

        Only valid when ``position`` is a keyframe; the executor uses it
        for cheap entry-state queries. Arbitrary positions go through
        :meth:`materialize_cpu`."""
        for kf_pos, regs, flags, pc in self.keyframes:
            if kf_pos == position:
                return list(regs), flags, pc
        raise ValueError(f"position {position} is not a keyframe")


def record_run(
    kernel,
    inputs,
    keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
    max_instructions: int = 100_000_000,
) -> ReplayRecord:
    """Execute once under continuous power, recording the commit log.

    ``kernel`` is an :class:`~repro.core.anytime.AnytimeKernel`; the run
    uses the fast interpreter with recording hooks installed. Marks the
    record non-replayable (rather than raising) when the configuration
    or the observed traffic violates the replay preconditions, so
    callers can cache the verdict and fall back to live interpretation.
    """
    record = ReplayRecord(keyframe_interval)
    config = kernel.config
    if config.memoization or config.zero_skipping:
        record.replayable = False
        record.reason = (
            "multiplier memoization / zero skipping make cycle costs "
            "depend on execution history"
        )
        return record

    cpu = kernel.make_cpu(inputs)

    # Replay models memory as a single non-volatile image rebuilt from
    # the store log; volatile regions (wiped on outage) and device
    # regions (read side effects) break that model.
    safe_spans = [
        (r.base, r.base + r.size)
        for r in cpu.memory.regions
        if not r.volatile and r.device is None
    ]

    pending: List[int] = []  # [kind, addr, size] of the access in flight

    def load_hook(addr: int, size: int) -> None:
        pending.append(_LOAD)
        pending.append(addr)
        pending.append(size)

    def store_hook(addr: int, size: int) -> int:
        pending.append(_STORE)
        pending.append(addr)
        pending.append(size)
        return 0

    def skim_hook(target: int) -> None:
        record.skim_pos.append(len(record.pcs))
        record.skim_target.append(target)

    cpu.load_hook = load_hook
    cpu.store_hook = store_hook
    cpu.skim_hook = skim_hook

    # Superinstruction fast path: fused runs of loads / single-cycle ALU
    # execute in one call and their log rows are appended in bulk from
    # the span's pre-computed costs (actual == worst-case for every
    # member, so the per-instruction cost-deviation check is vacuous).
    rec_blocks = record_superblocks(cpu)

    handlers = cpu._handlers
    memory = cpu.memory
    regs = cpu.regs.regs
    flags = cpu.flags
    peek_costs = cpu._peek_costs
    record.peek_costs = peek_costs
    pcs = record.pcs
    cum = record.cum_cost
    kinds = record.mem_kind
    addrs = record.mem_addr
    sizes = record.mem_size
    keyframes = record.keyframes

    total = 0
    pos = 0
    try:
        while not cpu.halted:
            if pos >= max_instructions:
                record.replayable = False
                record.reason = "instruction limit exceeded while recording"
                return record
            pc = cpu.pc
            at_interval = pos % keyframe_interval
            if at_interval == 0:
                keyframes.append((pos, tuple(regs), flags.snapshot(), pc))
            if rec_blocks is not None:
                blk = rec_blocks[pc]
                if (
                    blk is not None
                    and at_interval + blk[1] <= keyframe_interval
                    and pos + blk[1] <= max_instructions
                ):
                    _, blen, cost_prefix, load_flags, block_total = blk
                    blk[0]()
                    pcs.extend(range(pc, pc + blen))
                    for c in cost_prefix:
                        cum.append(total + c)
                    total += block_total
                    if pending:
                        it = 0
                        for is_load in load_flags:
                            if is_load:
                                addr = pending[it + 1]
                                size = pending[it + 2]
                                it += 3
                                kinds.append(_LOAD)
                                addrs.append(addr)
                                sizes.append(size)
                                ok = False
                                for base, span_end in safe_spans:
                                    if base <= addr and addr + size <= span_end:
                                        ok = True
                                        break
                                if not ok:
                                    record.replayable = False
                                    record.reason = (
                                        f"access at {addr:#010x} leaves "
                                        "non-volatile RAM"
                                    )
                                    return record
                            else:
                                kinds.append(0)
                                addrs.append(0)
                                sizes.append(0)
                        del pending[:]
                    else:
                        for _ in range(blen):
                            kinds.append(0)
                            addrs.append(0)
                            sizes.append(0)
                    pos += blen
                    continue
            cost = handlers[pc]()
            # The replay fast-forward (``advance``) relies on worst-case
            # and actual costs differing by at most one cycle; anything
            # else (an exotic functional-unit config) replays live.
            if not (peek_costs[pc] - 1 <= cost <= peek_costs[pc]):
                record.replayable = False
                record.reason = (
                    f"cost of pc {pc} ({cost}) strays from its worst case "
                    f"({peek_costs[pc]}) by more than one cycle"
                )
                return record
            total += cost
            pcs.append(pc)
            cum.append(total)
            if pending:
                kind, addr, size = pending
                del pending[:]
                kinds.append(kind)
                addrs.append(addr)
                sizes.append(size)
                if kind == _STORE:
                    if size == 4:
                        record.store_value.append(memory.load_word(addr))
                    elif size == 2:
                        record.store_value.append(memory.load_half(addr))
                    else:
                        record.store_value.append(memory.load_byte(addr))
                    record.store_pos.append(pos)
                    record.store_addr.append(addr)
                    record.store_size.append(size)
                ok = False
                for base, limit in safe_spans:
                    if base <= addr and addr + size <= limit:
                        ok = True
                        break
                if not ok:
                    record.replayable = False
                    record.reason = (
                        f"access at {addr:#010x} leaves non-volatile RAM"
                    )
                    return record
            else:
                kinds.append(0)
                addrs.append(0)
                sizes.append(0)
            pos += 1
    except Exception as exc:  # faulting programs replay live
        record.replayable = False
        record.reason = f"recording run faulted: {exc}"
        return record

    record.length = pos
    record.final_outputs = kernel.read_outputs(cpu)
    return record
