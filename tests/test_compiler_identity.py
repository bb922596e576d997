"""Every build is byte for byte the build it has always been.

The compile path shares work it used to repeat: the SWP/SWV passes
share frozen expression nodes when they copy statements
(``Expr.__deepcopy__``), and the assembler parses each distinct line
once per program. Neither may change a single emitted field. The
digest below covers every valid (workload, mode, bits) of every
workload at tiny and default scale (102 builds): each instruction's
fields, the labels, the constants, each data slot's layout and the
assembly source.

Recompute it only for an intended codegen change: the failing
assertion of :func:`test_every_build_matches_the_digest` shows the new
digest. Check the new code by other means (``test_compiler_passes.py``,
``test_workloads.py``, the figures), then commit the new digest with
the commit it was computed at.
"""

import hashlib
import json

import pytest

from repro.compiler import ir
from repro.compiler.passes.swp import apply_swp
from repro.compiler.passes.swv import apply_swv
from repro.experiments.common import build_anytime
from repro.workloads import ALL_BENCHMARKS, make_workload
from tests.test_native_record import VALID_BITS

#: sha256 of :func:`_encode` over :func:`_configs`, computed at commit
#: 6cbfd261ec7f (before any compile-time sharing).
BUILD_DIGEST = "d457d33f1cdaf876ce18f2881ba6bc9646f0e0e504b9631b91f7dcf544579b70"


def _configs():
    for scale in ("tiny", "default"):
        for name in ALL_BENCHMARKS:
            workload = make_workload(name, scale)
            yield workload, "precise", None
            for bits in VALID_BITS[workload.technique]:
                yield workload, workload.technique, bits


def _fields(compiled):
    """Every field of one build that the digest covers."""
    program = compiled.program
    return [
        [
            [i.op, i.rd, i.rn, i.rm, i.imm, i.label, i.target, i.text, i.line]
            for i in program.instructions
        ],
        list(program.labels.items()),
        list(program.constants.items()),
        [
            [
                name, slot.address, slot.array.layout, slot.array.layout_bits,
                slot.array.element_bits, slot.array.length,
                slot.array.logical_length, slot.array.logical_bits,
            ]
            for name, slot in compiled.slots.items()
        ],
        compiled.source,
    ]


def _builds():
    return [
        (workload.name, workload.scale, mode, bits,
         _fields(build_anytime(workload, mode, bits).compiled))
        for workload, mode, bits in _configs()
    ]


def _encode(builds) -> str:
    digest = hashlib.sha256()
    for build in builds:
        digest.update(json.dumps(build).encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def builds():
    return _builds()


def test_every_build_matches_the_digest(builds):
    assert len(builds) == 102
    assert _encode(builds) == BUILD_DIGEST


def test_full_expression_copies_build_the_same(builds, monkeypatch):
    """Sharing frozen expressions changes no build: with
    ``Expr.__deepcopy__`` deleted, the passes copy every expression
    node again, and every field of every build is the same."""
    monkeypatch.delattr(ir.Expr, "__deepcopy__")
    for shared, copied in zip(builds, _builds()):
        assert shared == copied, shared[:4]


def _statements(body):
    for stmt in body:
        yield stmt
        if isinstance(stmt, ir.Loop):
            yield from _statements(stmt.body)


@pytest.mark.parametrize("scale", ["tiny", "default"])
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_passes_copy_every_statement(name, scale):
    """SWP and SWV rewrite statements in place, so each output (and
    each SWP phase) must own its statements: the input kernel is left
    as it was, and no statement object appears twice in the output or
    in both the input and the output."""
    workload = make_workload(name, scale)
    apply = {"swp": apply_swp, "swv": apply_swv}[workload.technique]
    kernel = workload.kernel
    before = repr(kernel)
    inputs = {id(stmt) for stmt in _statements(kernel.body)}
    for bits in VALID_BITS[workload.technique]:
        output = apply(kernel, bits=bits)
        assert repr(kernel) == before, bits
        ids = [id(stmt) for stmt in _statements(output.body)]
        assert len(ids) == len(set(ids)), bits
        assert not inputs.intersection(ids), bits


def _recursive_walk(expr):
    yield expr
    if isinstance(expr, (ir.BinOp, ir.VecOp)):
        yield from _recursive_walk(expr.lhs)
        yield from _recursive_walk(expr.rhs)
    elif isinstance(expr, ir.MulAsp):
        yield from _recursive_walk(expr.lhs)
        yield from _recursive_walk(expr.sub)
    elif isinstance(expr, (ir.Load, ir.SubwordLoad)):
        yield from _recursive_walk(expr.index)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_walk_exprs_is_the_recursive_preorder(name):
    workload = make_workload(name, "tiny")
    apply = {"swp": apply_swp, "swv": apply_swv}[workload.technique]
    kernels = [workload.kernel] + [
        apply(workload.kernel, bits=bits)
        for bits in VALID_BITS[workload.technique]
    ]
    walked = 0
    for kernel in kernels:
        for stmt in _statements(kernel.body):
            if isinstance(stmt, ir.Assign):
                roots = [stmt.expr]
            elif isinstance(stmt, ir.Store):
                roots = [stmt.index, stmt.expr]
            else:
                roots = []
            for root in roots:
                got = [id(node) for node in ir.walk_exprs(root)]
                assert got == [id(node) for node in _recursive_walk(root)]
                walked += len(got)
    assert walked
