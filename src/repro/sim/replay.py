"""Record-once/replay-per-trace support for the experiment grid.

Every intermittent sample of one (workload, scale, mode, bits)
configuration executes the *same deterministic instruction stream* —
the power trace only decides where outages cut it. :func:`record_run`
therefore executes the program once under continuous power and captures
a **commit log**, in flat ``array`` columns:

* the retired PC (``pcs``, uint16) and the cumulative cycle cost
  (``cum_cost``, uint32) of every stream position: 6 bytes per
  instruction. The cost of any stream segment is one subtraction, and
  "how far does this budget reach" is one bisect;
* an access log: the stream position (``acc_pos``) and address
  (``acc_addr``) of every load and store, 8 bytes per access. The
  opcode at the position fixes the access's kind and width, so they
  live in per-PC tables built from the program (``pc_kind``,
  ``pc_size``). This is the raw material for replaying Clank's
  write-after-read idempotency tracking over log segments instead of
  per-byte hook calls;
* a store log (position, address, size, value read back after the
  store committed) — enough to rebuild the NVM image at any stream
  position from a fresh ``make_cpu`` image;
* keyframes every ``keyframe_interval`` instructions: position, 16
  registers, a packed flags byte and the PC *before* that instruction
  (``kf_pos``, ``kf_regs``, ``kf_flags``, ``kf_pc``), so the
  architectural state at an arbitrary position is one keyframe restore
  plus at most one interval of live stepping;
* skim-register arm events (``SKM`` retires) and the final outputs.

The narrow columns are range-guarded: a program longer than
:data:`MAX_PROGRAM` instructions or a run longer than
:data:`MAX_CYCLES` cycles is non-replayable.

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

The recording run executes on the native core
(:mod:`repro.sim.native`) whenever it is available and the program
halts cleanly; everything else re-runs on :func:`record_run_python`,
the per-instruction Python loop that is the golden model and the only
producer of non-replayable verdicts. Both give field-for-field equal
records (``tests/test_native_record.py``).
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import LOAD_OPS, STORE_OPS, mem_width
from . import native
from .batch_replay import BatchIndex
from .cpu import CPU
from .decode import decode_program
from .memory import _zero_fill

#: Instructions between architectural keyframes. Reconstructing the
#: state at an arbitrary position (the skim handoff does this once per
#: skimmed sample) costs at most this many live steps; each keyframe
#: costs 145 bytes. 256 keeps reconstruction ~free while the keyframe
#: columns stay well under the access log's own footprint.
DEFAULT_KEYFRAME_INTERVAL = 256

#: Range guards of the narrow columns: PCs are uint16, cycle counts
#: (and so stream positions, since every instruction costs a cycle or
#: more) uint32. The largest program in this repository has 307
#: instructions and the longest run 10.1 M cycles.
MAX_PROGRAM = 0xFFFF
MAX_CYCLES = 0xFFFFFFFF

#: Keyframe memory snapshots are sparse: each keeps only the pages of
#: this many bytes that the store log wrote before its keyframe, and is
#: restored over the record's initial image, which itself keeps only
#: its nonzero pages. A full image is 1.25 MiB (5120 pages); a tiny
#: kernel writes a few KB, and the default-scale builds stage 2-32
#: pages.
SNAPSHOT_PAGE = 256
_PAGE_SHIFT = SNAPSHOT_PAGE.bit_length() - 1
#: Pages compared with zeros at once when finding an image's nonzero
#: pages; only a block that is not all zero is split into pages.
_SCAN_BLOCK = 64 * SNAPSHOT_PAGE
_BLOCK_ZEROS = bytes(_SCAN_BLOCK)
_PAGE_ZEROS = bytes(SNAPSHOT_PAGE)

#: Byte estimates for :meth:`ReplayRecord.nbytes`, measured with
#: tracemalloc. A materialization CPU, whose memory regions belong to
#: the calling thread, takes 312-386 B per program instruction (its
#: decoded handlers and their state) on default-scale MatMul, Conv2d,
#: MLP, Home, FC, Var and NetMotion builds and on CNN tiny swp-1. A
#: page entry (of the page table or the initial image) and a keyframe
#: delta's object and dict overhead are about 100 B each.
_HANDLER_BYTES = 340
_PAGE_BYTES = 110
_DELTA_BYTES = 100

#: The commit-log columns and their array typecodes.
_COLUMNS = {
    "pcs": "H", "cum_cost": "I", "acc_pos": "I", "acc_addr": "I",
    "store_pos": "q", "store_addr": "I", "store_size": "b",
    "store_value": "I", "kf_pos": "q", "kf_regs": "q", "kf_flags": "B",
    "kf_pc": "q",
}

_LOAD = 1
_STORE = 2

#: Keyframe flag tuples by their packed byte (n | z<<1 | c<<2 | v<<3).
_FLAGS = tuple(
    (bool(code & 1), bool(code & 2), bool(code & 4), bool(code & 8))
    for code in range(16)
)

#: The calling thread's region buffers (see ReplayRecord.materialize_cpu).
_THREAD = threading.local()


def access_tables(program) -> Tuple[bytes, bytes]:
    """``(pc_kind, pc_size)``: per program counter, the kind (0 none,
    1 load, 2 store) and width in bytes of the access its opcode makes."""
    kinds = bytearray(len(program.instructions))
    sizes = bytearray(len(program.instructions))
    for pc, instr in enumerate(program.instructions):
        op = instr.op
        if op in LOAD_OPS or op in STORE_OPS:
            kinds[pc] = _LOAD if op in LOAD_OPS else _STORE
            sizes[pc] = mem_width(op)
    return bytes(kinds), bytes(sizes)


class ReplayDiverged(Exception):
    """The log cannot reproduce this sample exactly; replay it live.

    Raised when the runtime's policy would drive execution off the
    recorded stream — e.g. Hibernus rewinding into a non-idempotent
    segment whose re-execution reads values later stores overwrote.
    Callers catch it and fall back to the interpreter path."""


class ReplayRecord:
    """The commit log of one continuous run (see module docstring)."""

    __slots__ = (
        *_COLUMNS,
        "pc_kind",
        "pc_size",
        "skim_pos",
        "skim_target",
        "peek_costs",
        "keyframe_interval",
        "length",
        "final_outputs",
        "replayable",
        "reason",
        "recorder",
        "batch",
        "lock",
        "_progress_memo",
        "_war_memo",
        "_mat_cache",
        "_mat_bytes",
        "_pages",
        "_page_firsts",
        "_kf_deltas",
        "_kf_order",
    )

    def __init__(self, keyframe_interval: int):
        for name, typecode in _COLUMNS.items():
            setattr(self, name, array(typecode))
        #: cum_cost[j] = cycles to execute stream positions [0, j).
        self.cum_cost.append(0)
        #: Access kind and width per program counter (access_tables).
        self.pc_kind = b""
        self.pc_size = b""
        self.skim_pos: List[int] = []
        self.skim_target: List[int] = []
        #: Worst-case cost per *program counter* (shared with the
        #: decoded program); the executor's commit rule needs it.
        self.peek_costs: List[int] = []
        self.keyframe_interval = keyframe_interval
        self.length = 0
        self.final_outputs: Dict[str, List[int]] = {}
        self.replayable = True
        self.reason = ""
        #: Which recorder produced the log: "native", or "python:<cause>"
        #: with the reason the native core did not (see record_run).
        self.recorder = "python"
        #: Held by the replay engine across one group's walk: the WAR
        #: index, the memos and the materialization cache below are
        #: shared mutable state, so concurrent jobs on one record take
        #: turns (repro.runtime.batch_executor.run_batch_group).
        self.lock = threading.Lock()
        #: The WAR index (repro.sim.batch_replay.BatchIndex), built by
        #: the first next_war_before query.
        self.batch: Optional[BatchIndex] = None
        #: Output-store positions per output-range tuple, memoized for
        #: the progress policy (repro.runtime.progress).
        self._progress_memo: Dict[tuple, List[int]] = {}
        self._war_memo: Dict[int, int] = {}
        self._mat_cache: Optional[tuple] = None
        #: Bytes of the materialization state: the cached CPU's
        #: handlers, the sparse initial image and every keyframe delta
        #: (see nbytes).
        self._mat_bytes = 0
        #: (region index, offset, length) of every page the store log
        #: writes, in order of first write, and the stream position of
        #: each page's first write; built with the first snapshot.
        self._pages: List[Tuple[int, int, int]] = []
        self._page_firsts: Optional[array] = None
        #: Keyframe index -> the bytes of its written pages, in _pages
        #: order (a prefix of _pages: those first written before it),
        #: and the indices that have one, ascending.
        self._kf_deltas: Dict[int, bytes] = {}
        self._kf_order: List[int] = []

    def nbytes(self) -> int:
        """Approximate bytes this record holds: its columns, vectorized
        index and materialization state. Reads counters only, so it is
        safe while another thread walks the record."""
        size = sum(sys.getsizeof(getattr(self, name)) for name in _COLUMNS)
        size += len(self._pages) * _PAGE_BYTES
        if self.batch is not None:
            size += self.batch.nbytes()
        return size + self._mat_bytes

    # -- segment queries ----------------------------------------------------

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

    def next_war_before(self, start: int, limit: int) -> int:
        """First WAR store position in [start, limit), else ``limit``.

        Clank's read-first/written byte tracking from empty sets at
        ``start`` (a checkpoint or restore point) over the recorded
        accesses: the first store that hits a read-first byte is where
        Clank checkpoints *before* the store commits. The record's
        :class:`~repro.sim.batch_replay.BatchIndex`, built on the first
        query, answers the unbounded question once per ``start`` (the
        stream ``length`` if it halts first); the verdict is memoized,
        so every later call from any lane of any group is a lookup."""
        final = self._war_memo.get(start)
        if final is None:
            if self.batch is None:
                self.batch = BatchIndex(self)
            final = self._war_memo[start] = self.batch.war_from(start)
        return final if final < limit else limit

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

        Rebuilds the initial image (staging is deterministic), restores
        the nearest keyframe at/before ``reg_pos``, live-steps the gap
        (at most one keyframe interval; the stepping itself re-applies
        the stores it crosses), then fast-applies the remaining store
        log up to ``mem_pos``. Used for the skim-point handoff to live
        interpretation and for reading outputs of runs that did not
        complete.

        The CPU (with its decoded handlers), the nonzero pages of the
        initial image and each restored keyframe's memory delta are
        cached on the record. The CPU's memory regions run on buffers
        owned by the calling thread: each call points them at this
        thread's buffers and rewrites them whole, which is safe because
        the decoded handlers re-read ``region.data`` on every access.
        Each call resets the cached instance in place, so callers must
        be done with the previous materialization when they ask for the
        next one, and must hold :attr:`lock` while using it (the replay
        engine holds it across a whole group).
        """
        cache = self._mat_cache
        if cache is not None and cache[0] is kernel and cache[1] is inputs:
            cpu, image = cache[2], cache[3]
            cpu.load_hook = None
            cpu.store_hook = None
            cpu.skim_hook = None
        else:
            cpu = kernel.make_cpu(inputs)
            image = _nonzero_pages(cpu.memory.regions)
            self._mat_cache = (kernel, inputs, cpu, image)
            self._kf_deltas = {}
            self._kf_order = []
            self._mat_bytes = len(image) * (SNAPSHOT_PAGE + _PAGE_BYTES)
            self._mat_bytes += len(cpu.program.instructions) * _HANDLER_BYTES
        regions = cpu.memory.regions
        _attach_thread_buffers(regions)
        for i, offset, page in image:
            regions[i].data[offset:offset + len(page)] = page
        index = bisect_right(self.kf_pos, reg_pos) - 1
        kf_pos = self.kf_pos[index]
        # Memory at a keyframe is a pure function of the keyframe, so
        # the store log up to it replays once per keyframe, starting
        # from the nearest earlier snapshot, and later materializations
        # write back the pages it touched — the replay engine
        # materializes many lanes per record.
        delta = self._kf_deltas.get(index)
        if delta is None:
            order = self._kf_order
            at = bisect_right(order, index)
            start = 0
            if at:
                self._restore_pages(regions, self._kf_deltas[order[at - 1]])
                start = self.kf_pos[order[at - 1]]
            self.apply_stores(cpu.memory, start, kf_pos)
            if self._page_firsts is None:
                self._index_pages(regions)
            count = bisect_left(self._page_firsts, kf_pos)
            delta = self._kf_deltas[index] = b"".join(
                regions[i].data[offset:offset + length]
                for i, offset, length in self._pages[:count]
            )
            order.insert(at, index)
            self._mat_bytes += len(delta) + _DELTA_BYTES
        else:
            self._restore_pages(regions, delta)
        cpu.regs.restore(self.kf_regs[16 * index:16 * index + 16])
        cpu.flags.restore(_FLAGS[self.kf_flags[index]])
        cpu.pc = self.kf_pc[index]
        cpu.halted = False
        for _ in range(reg_pos - kf_pos):
            cpu.step()
        self.apply_stores(cpu.memory, reg_pos, mem_pos)
        return cpu

    def _restore_pages(self, regions, delta: bytes) -> None:
        """Write a keyframe delta's pages back into ``regions``."""
        view = memoryview(delta)
        start = 0
        for i, offset, length in self._pages:
            if start == len(delta):
                break
            regions[i].data[offset:offset + length] = view[start:start + length]
            start += length

    def _index_pages(self, regions) -> None:
        """Fill :attr:`_pages` and :attr:`_page_firsts` from the store
        log (of a replayable record: every store lies in one RAM
        region). A store that straddles a page boundary writes both
        pages."""
        spans = [(r.base, r.base + r.size) for r in regions]
        firsts: Dict[Tuple[int, int], int] = {}
        for pos, addr, size in zip(self.store_pos, self.store_addr, self.store_size):
            index = next(i for i, (lo, hi) in enumerate(spans) if lo <= addr < hi)
            offset = addr - spans[index][0]
            last = (offset + size - 1) >> _PAGE_SHIFT
            for page in range(offset >> _PAGE_SHIFT, last + 1):
                firsts.setdefault((index, page), pos)
        self._pages = [
            (index, page << _PAGE_SHIFT,
             min(SNAPSHOT_PAGE, regions[index].size - (page << _PAGE_SHIFT)))
            for index, page in firsts
        ]
        self._page_firsts = array("q", firsts.values())


def _nonzero_pages(regions) -> List[Tuple[int, int, bytes]]:
    """``(region index, offset, bytes)`` of every page of the RAM
    regions holding a nonzero byte. Whole blocks of pages are compared
    with zeros first, so a mostly zero image costs a few dozen compares."""
    pages = []
    for i, region in enumerate(regions):
        if region.device is not None:
            continue
        data = region.data
        for start in range(0, len(data), _SCAN_BLOCK):
            block = data[start:start + _SCAN_BLOCK]
            if block == _BLOCK_ZEROS[:len(block)]:
                continue
            for offset in range(start, start + len(block), SNAPSHOT_PAGE):
                page = data[offset:offset + SNAPSHOT_PAGE]
                if page != _PAGE_ZEROS[:len(page)]:
                    pages.append((i, offset, bytes(page)))
    return pages


def _attach_thread_buffers(regions) -> None:
    """Point each RAM region at the calling thread's zeroed buffer for
    its slot and size, so a thread holds one set of region buffers
    however many records it materializes.

    A reused buffer is zeroed whole, by a write-only fill. Zeroing only
    the pages the last materialization dirtied would also have to cover
    the stores of a skim handoff's live suffix, which the log does not
    hold."""
    buffers = _THREAD.__dict__.setdefault("buffers", {})
    for i, region in enumerate(regions):
        if region.device is not None:
            continue
        buffer = buffers.get((i, region.size))
        if buffer is None:
            buffer = buffers[(i, region.size)] = bytearray(region.size)
        else:
            _zero_fill(buffer)
        region.data = buffer


class _StagedCPU(CPU):
    """A CPU holding staged state only: memory, registers, flags, PC.

    The native recorder executes over its memory in place, so it binds
    no handlers."""

    predecode = False


def record_run(
    kernel,
    inputs,
    keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
    max_instructions: int = 100_000_000,
) -> ReplayRecord:
    """Execute once under continuous power, recording the commit log.

    ``kernel`` is an :class:`~repro.core.anytime.AnytimeKernel`. The
    run executes on the native core when it is available and the
    program halts cleanly; any other ending re-runs on
    :func:`record_run_python`, which produces the verdict. Both give the
    same record; its ``recorder`` says which ran: ``"native"``, or
    ``"python:<cause>"`` with the reason the core did not
    (``config`` for a configuration that is non-replayable up front,
    ``unavailable``, ``unsupported``, ``unsafe-access``, ``fault``,
    ``limit``, ``cost``, ``range`` or ``out-of-memory``).
    """
    config = kernel.config
    if config.memoization or config.zero_skipping:
        cause = "config"
    else:
        record = ReplayRecord(keyframe_interval)
        cpu = kernel.make_cpu(inputs, cpu_cls=_StagedCPU)
        cause = native.record_into(
            record, cpu, max_instructions, MAX_PROGRAM, MAX_CYCLES
        )
        if cause == "native":
            record.pc_kind, record.pc_size = access_tables(cpu.program)
            record.peek_costs = decode_program(cpu.program).peek_costs
            record.final_outputs = kernel.read_outputs(cpu)
            record.recorder = cause
            return record
    record = record_run_python(
        kernel, inputs, keyframe_interval, max_instructions
    )
    record.recorder = f"python:{cause}"
    return record


def record_run_python(
    kernel,
    inputs,
    keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
    max_instructions: int = 100_000_000,
) -> ReplayRecord:
    """The per-instruction Python recorder: :func:`record_run`'s golden model.

    Runs the fast interpreter with recording hooks installed. Marks the
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
    if len(cpu.program.instructions) > MAX_PROGRAM:
        record.replayable = False
        record.reason = (
            f"program of {len(cpu.program.instructions)} instructions "
            f"exceeds the commit log's {MAX_PROGRAM}-instruction range"
        )
        return record
    record.pc_kind, record.pc_size = access_tables(cpu.program)

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

    handlers = cpu._handlers
    memory = cpu.memory
    regs = cpu.regs.regs
    flags = cpu.flags
    peek_costs = cpu._peek_costs
    record.peek_costs = peek_costs
    pc_kind = record.pc_kind
    pc_size = record.pc_size
    pcs = record.pcs
    cum = record.cum_cost
    acc_pos = record.acc_pos
    acc_addr = record.acc_addr

    total = 0
    pos = 0
    try:
        while not cpu.halted:
            if pos >= max_instructions:
                record.replayable = False
                record.reason = "instruction limit exceeded while recording"
                return record
            pc = cpu.pc
            if pos % keyframe_interval == 0:
                try:
                    record.kf_regs.extend(regs)
                except OverflowError:
                    record.replayable = False
                    record.reason = (
                        f"a register at position {pos} leaves the "
                        "keyframe's 64-bit range"
                    )
                    return record
                record.kf_pos.append(pos)
                record.kf_flags.append(
                    flags.n | flags.z << 1 | flags.c << 2 | flags.v << 3
                )
                record.kf_pc.append(pc)
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
            if total > MAX_CYCLES:
                record.replayable = False
                record.reason = (
                    f"run exceeds the commit log's {MAX_CYCLES}-cycle range"
                )
                return record
            pcs.append(pc)
            cum.append(total)
            if pending:
                kind, addr, size = pending
                del pending[:]
                # The log keeps positions and addresses only: each
                # access's kind and width must be its opcode's.
                if kind != pc_kind[pc] or size != pc_size[pc]:
                    record.replayable = False
                    record.reason = (
                        f"access of pc {pc} (kind {kind}, {size} bytes) "
                        "differs from its opcode's"
                    )
                    return record
                acc_pos.append(pos)
                acc_addr.append(addr)
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
            pos += 1
    except Exception as exc:  # faulting programs replay live
        record.replayable = False
        record.reason = f"recording run faulted: {exc}"
        return record
    finally:
        cpu.release()

    record.length = pos
    record.final_outputs = kernel.read_outputs(cpu)
    return record
