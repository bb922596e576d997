"""Native core of the commit-log recorder: build, load and call ``_record.c``.

:func:`repro.sim.replay.record_run` executes its continuous recording
run in C when it can. The core (``_record.c``, standard C with no
Python headers) is compiled on the first recording with the system C
compiler (``cc -O2 -shared -fPIC``) and called through :mod:`ctypes`,
which releases the GIL for each call. It runs over the CPU's own memory
buffers, one chunk of instructions per call into buffers this module
owns, and fills exactly the columns the Python recorder appends, with
the same ``array`` typecodes.

The shared object is named by the sha256 of the C source and the
compile command and cached in this package's ``__pycache__`` (or a
private directory under the temp dir when that is not writable); it is
written under a temporary name and renamed into place, so concurrent
builders never see a partial file. Without a compiler, or when the
build or the load fails, :func:`load` prints one warning per process
and every recording runs on the Python loop.

A native run succeeds only on a clean ``HALT``. Every other ending is
reported as a cause (``unsafe-access``, ``fault``, ``limit``, ``cost``,
``out-of-memory``), and so is a program or machine state the core does
not model (``unsupported``); the caller then re-runs the Python
recorder, which stays the golden model and the only producer of
non-replayable verdicts.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Iterator, Optional

from ..isa.instructions import (
    ASP_OPS,
    ASPS_OPS,
    BRANCH_CONDS,
    LOAD_OPS,
    STORE_OPS,
    asp_width,
    asv_width,
)
from .decode import decode_program

SOURCE = Path(__file__).with_name("_record.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

# Opcode numbers of _record.c's enum, in its order.
_ALU_OPS = (
    "MOV", "MVN", "ADD", "ADC", "CMN", "SUB", "SBC", "CMP", "RSB", "NEG",
    "TST", "AND", "ORR", "EOR", "BIC", "LSL", "LSR", "ASR", "SXTB", "SXTH",
    "UXTB", "UXTH",
)
(OP_LOAD, OP_STORE, OP_BCC, OP_B, OP_BL, OP_BX, OP_MUL, OP_ASP, OP_ASPS,
 OP_ADDV, OP_SUBV, OP_SKM, OP_HALT, OP_NOP) = range(len(_ALU_OPS),
                                                    len(_ALU_OPS) + 14)
_ALU_CODES = {op: code for code, op in enumerate(_ALU_OPS)}
#: ALU ops that read ``rn`` / write ``rd`` (mirrors repro.sim.decode).
_READS_RN = frozenset(_ALU_OPS) - {"MOV", "MVN", "NEG", "SXTB", "SXTH",
                                   "UXTB", "UXTH"}
_WRITES_RD = frozenset(_ALU_OPS) - {"CMN", "CMP", "TST"}
#: Condition index per conditional branch (_record.c's ``condition``).
_CONDS = ("EQ", "NE", "LT", "GE", "GT", "LE", "LO", "HS", "HI", "LS", "MI",
          "PL")

#: int64 words per encoded instruction (_record.c's WN_FIELDS): the
#: seven fields of :func:`_encode_one` and the worst-case cost.
_FIELDS = 8

#: Output columns of _record.c, in its order, with their array typecodes.
_COLUMNS = ("i", "q", "b", "I", "b", "q", "I", "b", "I", "q", "q", "q", "q",
            "B", "q")
(_PCS, _CUM, _MEM_KIND, _MEM_ADDR, _MEM_SIZE, _STORE_POS, _STORE_ADDR,
 _STORE_SIZE, _STORE_VALUE, _SKIM_POS, _SKIM_TARGET, _KF_POS, _KF_REGS,
 _KF_FLAGS, _KF_PC) = range(len(_COLUMNS))

#: Statuses of ``wn_record``: a clean HALT, a full chunk, and the
#: endings the Python recorder must judge.
_HALT, _MORE = 0, 1
_CAUSES = {2: "unsafe-access", 3: "fault", 4: "limit", 5: "cost"}

#: Instructions per ``wn_record`` call: the first chunk is small, so a
#: short program allocates little, and each next one is four times
#: larger up to the cap (~3 MB of chunk buffers).
_FIRST_CHUNK = 1 << 12
_CHUNK = 1 << 16

#: Keyframe flag tuples by their packed code (n | z<<1 | c<<2 | v<<3).
_FLAGS = tuple(
    (bool(code & 1), bool(code & 2), bool(code & 4), bool(code & 8))
    for code in range(16)
)

#: Immediates and initial registers the core accepts: within this range
#: every value the Python handlers can produce fits in int64.
_VALUE_LIMIT = 1 << 32


class _Column(ctypes.Structure):
    _fields_ = [("data", ctypes.c_void_p), ("len", ctypes.c_int64)]


class _State(ctypes.Structure):
    _fields_ = [("pos", ctypes.c_int64), ("total", ctypes.c_int64),
                ("pc", ctypes.c_int64), ("flags", ctypes.c_int64),
                ("regs", ctypes.c_int64 * 16)]


class BuildError(Exception):
    """The C core could not be compiled here."""


_lock = threading.Lock()
_lib = None  # None: not tried yet; False: unavailable in this process


def load():
    """The loaded core, or None when it cannot be built or loaded.

    Builds on the first call (never at import), under a lock so
    concurrent first recordings build and load once. A failure is
    warned about once per process and remembered."""
    global _lib
    with _lock:
        if _lib is None:
            try:
                _lib = _open(_build())
            except (OSError, subprocess.SubprocessError, BuildError) as exc:
                print(
                    f"repro: native recorder unavailable ({exc}); "
                    "recording on the Python loop",
                    file=sys.stderr,
                )
                _lib = False
    return _lib or None


def compiler() -> Optional[str]:
    """Path of the system C compiler, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dirs() -> Iterator[Path]:
    yield Path(__file__).resolve().parent / "__pycache__"
    # A private per-user directory: a shared temp dir must not let
    # another user plant the library this process loads.
    private = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    info = private.stat()
    if info.st_uid == os.getuid() and not info.st_mode & 0o022:
        yield private


def _build() -> Path:
    """Path of the compiled core, compiling it if no cached copy exists."""
    cc = compiler()
    if cc is None:
        raise BuildError("no C compiler on PATH")
    command = [cc, *CFLAGS]
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), *(part.encode() for part in command)])
    ).hexdigest()[:16]
    name = f"_record-{key}.so"
    for directory in _cache_dirs():
        target = directory / name
        if target.is_file():
            return target
        try:
            directory.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
        except OSError:
            continue
        os.close(fd)
        try:
            done = subprocess.run(
                [*command, "-o", tmp, str(SOURCE)], stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300,
            )
            if done.returncode != 0:
                output = done.stdout.decode(errors="replace").strip()
                raise BuildError(
                    f"{cc} exited {done.returncode}: {output[-500:]}"
                )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    raise BuildError("no writable cache directory")


def _open(path: Path):
    lib = ctypes.CDLL(str(path))
    lib.wn_record.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_void_p),
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.POINTER(_State), ctypes.POINTER(_Column),
    ]
    lib.wn_record.restype = ctypes.c_int
    lib.wn_column_width.argtypes = [ctypes.c_int]
    lib.wn_column_width.restype = ctypes.c_int
    for index, typecode in enumerate(_COLUMNS):
        if lib.wn_column_width(index) != array(typecode).itemsize:
            raise BuildError(
                f"column {index} layout differs from array({typecode!r})"
            )
    return lib


# -- program encoding ---------------------------------------------------------


def _reg(value) -> bool:
    return isinstance(value, int) and 0 <= value < 16


def _value(value) -> bool:
    return isinstance(value, int) and -_VALUE_LIMIT <= value < _VALUE_LIMIT


def _encode_one(instr, n: int) -> Optional[tuple]:
    """``(op, rd, rn, rm, imm, target, aux)`` for one instruction, or
    None when an operand the handler reads lies outside the model."""
    op = instr.op
    rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm
    target = instr.target
    if op in _ALU_CODES or op in LOAD_OPS or op in STORE_OPS:
        memory = op not in _ALU_CODES
        if (memory or op in _WRITES_RD) and not _reg(rd):
            return None
        if (memory or op in _READS_RN) and not _reg(rn):
            return None
        if rm is not None:
            if not _reg(rm):
                return None
            imm = 0
        elif not _value(imm):
            return None
        if memory:
            size = 4 if op.endswith("R") else (1 if op.endswith("B") else 2)
            code = OP_LOAD if op in LOAD_OPS else OP_STORE
            return (code, rd, rn, -1 if rm is None else rm, imm, 0, size)
        return (_ALU_CODES[op], rd if op in _WRITES_RD else 0,
                rn if op in _READS_RN else 0, -1 if rm is None else rm,
                imm, 0, 0)
    if op in BRANCH_CONDS or op in ("B", "BL"):
        # A target outside the program faults at the next dispatch,
        # which the Python recorder then reproduces.
        if not (isinstance(target, int) and 0 <= target < n):
            target = -1
        if op == "B":
            return (OP_B, 0, 0, 0, 0, target, 0)
        if op == "BL":
            return (OP_BL, 0, 0, 0, 0, target, 0)
        return (OP_BCC, 0, 0, 0, 0, target, _CONDS.index(BRANCH_CONDS[op]))
    if op == "BX":
        return (OP_BX, 0, 0, rm, 0, 0, 0) if _reg(rm) else None
    if op == "MUL" or op in ASP_OPS or op in ASPS_OPS or "_ASV" in op:
        if not (_reg(rd) and _reg(rm)):
            return None
        if op == "MUL":
            return (OP_MUL, rd, 0, rm, 0, 0, 0)
        if "_ASV" in op:
            code = OP_ADDV if op.startswith("ADD") else OP_SUBV
            return (code, rd, 0, rm, 0, 0, asv_width(op))
        if not _value(imm):
            return None
        code = OP_ASPS if op in ASPS_OPS else OP_ASP
        return (code, rd, 0, rm, imm, 0, asp_width(op))
    if op == "SKM":
        return (OP_SKM, 0, 0, 0, 0, target, 0) if _value(target) else None
    if op == "HALT":
        return (OP_HALT, 0, 0, 0, 0, 0, 0)
    if op == "NOP":
        return (OP_NOP, 0, 0, 0, 0, 0, 0)
    return None


def _encode_program(program) -> Optional[array]:
    """The program as ``_record.c`` reads it (:data:`_FIELDS` int64
    words per instruction), or None if some instruction lies outside
    the model. Computed once per program and cached on it, like
    :func:`~repro.sim.decode.decode_program`."""
    cache = getattr(program, "_native_cache", None)
    if cache is not None and cache[0] is program.instructions:
        return cache[1]
    instructions = program.instructions
    costs = decode_program(program).peek_costs
    code: Optional[array] = array("q")
    for instr, worst in zip(instructions, costs):
        fields = _encode_one(instr, len(instructions))
        if fields is None:
            code = None
            break
        code.extend(fields)
        code.append(worst)
    program._native_cache = (instructions, code)
    return code


# -- one recording ------------------------------------------------------------


def _chunk_buffers(chunk: int, interval: int):
    """Column buffers for ``chunk`` instructions and their descriptors."""
    keyframes = chunk // interval + 1
    counts = [chunk] * _KF_POS + [keyframes, 16 * keyframes, keyframes,
                                  keyframes]
    buffers = [array(typecode, [0]) * count
               for typecode, count in zip(_COLUMNS, counts)]
    columns = (_Column * len(_COLUMNS))(
        *[(buffer.buffer_info()[0], 0) for buffer in buffers]
    )
    return buffers, columns


def record_into(record, cpu, max_instructions: int) -> str:
    """Record ``cpu``'s continuous run into ``record``'s log columns.

    ``cpu`` holds staged state only (memory, registers, flags, PC); its
    memory is executed in place, so on success it holds the final
    image. Returns ``"native"`` when the run halted cleanly and
    ``record`` now holds ``pcs``, ``cum_cost``, the access and store
    logs, the skim events, ``keyframes`` and ``length``; otherwise
    returns the cause and leaves ``record`` untouched (``cpu``'s memory
    is then undefined)."""
    lib = load()
    if lib is None:
        return "unavailable"
    code = _encode_program(cpu.program)
    multiplier = cpu.multiplier
    regs = cpu.regs.regs
    flags = cpu.flags.snapshot()
    interval = record.keyframe_interval
    if (
        code is None
        or multiplier.memo is not None
        or multiplier.zero_skipping
        or not all(_value(value) for value in regs)
        or not all(isinstance(flag, bool) for flag in flags)
        or not isinstance(cpu.pc, int)
        or not (isinstance(interval, int) and interval > 0)
    ):
        return "unsupported"
    regions = cpu.memory.regions
    info = (ctypes.c_int64 * (3 * len(regions)))()
    region_data = (ctypes.c_void_p * len(regions))()
    views = []  # the exported buffers stay alive (and unresizable)
    for i, region in enumerate(regions):
        safe = not region.volatile and region.device is None
        info[3 * i:3 * i + 3] = [region.base, region.size, int(safe)]
        if safe:
            if len(region.data) != region.size:
                return "unsupported"
            views.append(ctypes.c_char.from_buffer(region.data))
            region_data[i] = ctypes.addressof(views[-1])
    # A keyframe buffer holds chunk // interval + 1 entries, so a short
    # interval takes short chunks instead of large keyframe buffers.
    limit = min(_CHUNK, 256 * interval)
    state = _State(0, 0, cpu.pc,
                   sum(flag << bit for bit, flag in enumerate(flags)),
                   (ctypes.c_int64 * 16)(*regs))
    out = [array(typecode) for typecode in _COLUMNS]
    out[_CUM].append(0)
    chunk = 0
    status = _MORE
    try:
        while status == _MORE:
            if chunk < limit:
                chunk = min(limit, max(_FIRST_CHUNK, 4 * chunk))
                chunks, columns = _chunk_buffers(chunk, interval)
            status = lib.wn_record(
                code.buffer_info()[0], len(code) // _FIELDS, len(regions),
                info, region_data, interval, max_instructions,
                multiplier.full_width, chunk, state, columns,
            )
            if status not in (_HALT, _MORE):
                return _CAUSES.get(status, "fault")
            for column, chunk_buffer, dest in zip(columns, chunks, out):
                nbytes = column.len * chunk_buffer.itemsize
                dest.frombytes(memoryview(chunk_buffer).cast("B")[:nbytes])
    except MemoryError:
        return "out-of-memory"
    (record.pcs, record.cum_cost, record.mem_kind, record.mem_addr,
     record.mem_size, record.store_pos, record.store_addr, record.store_size,
     record.store_value) = out[:_SKIM_POS]
    record.skim_pos = out[_SKIM_POS].tolist()
    record.skim_target = out[_SKIM_TARGET].tolist()
    kf_regs, kf_flags, kf_pcs = out[_KF_REGS], out[_KF_FLAGS], out[_KF_PC]
    record.keyframes = [
        (pos, tuple(kf_regs[16 * i:16 * i + 16]), _FLAGS[kf_flags[i]],
         kf_pcs[i])
        for i, pos in enumerate(out[_KF_POS])
    ]
    record.length = len(record.pcs)
    return "native"
