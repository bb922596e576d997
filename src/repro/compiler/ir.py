"""Kernel intermediate representation.

The paper implements What's Next entirely in the compiler IR: the
programmer only annotates approximable inputs/outputs with ``#pragma
asp`` / ``#pragma asv`` (Listings 1 and 3), and compiler passes perform
loop fission and rewrite candidate operations into their anytime
equivalents (Algorithm 1, Figures 5 and 6).

This module defines that IR: affine loop nests over named arrays with
scalar temporaries. It deliberately covers the shapes the paper's six
kernels use — element-wise maps, stencils, matrix products and
reductions — rather than arbitrary C.

The IR carries its own reference interpreter (:func:`evaluate`), used
by the tests to prove that compiler passes and code generation preserve
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Arrays and pragmas.
# ---------------------------------------------------------------------------

ROW_MAJOR = "row"
PLANE_MAJOR = "plane"  # subword-major (SWV layout, paper Figure 7)
PLANE_PROVISIONED = "plane_provisioned"  # 2W-bit lanes for carry headroom


@dataclass
class Pragma:
    """An ``asp`` / ``asv`` annotation on an array (paper Listings 1, 3)."""

    kind: str  # "asp" or "asv"
    bits: int = 8
    provisioned: bool = False

    def __post_init__(self):
        if self.kind not in ("asp", "asv"):
            raise ValueError(f"unknown pragma kind {self.kind!r}")
        if self.bits not in (1, 2, 3, 4, 8):
            raise ValueError(f"unsupported subword width {self.bits}")


@dataclass
class Array:
    """A named array in non-volatile memory.

    ``element_bits`` is 16 or 32 (the paper's two datapath configs).
    ``layout`` starts row-major; the SWV pass rewrites annotated arrays
    to a subword-major plane layout. ``layout_bits`` records the
    subword width of a plane layout.
    """

    name: str
    length: int
    element_bits: int = 16
    kind: str = "input"  # input | output | inout
    layout: str = ROW_MAJOR
    layout_bits: int = 0
    pragma: Optional[Pragma] = None
    #: Two's-complement data: loads sign-extend to 32 bits (the paper's
    #: kernels use non-negative fixed point; signed support is this
    #: library's extension).
    signed: bool = False
    # Set by the SWV pass when the array is repacked into plane words:
    # the original (logical) element count and width, for staging/decode.
    logical_length: Optional[int] = None
    logical_bits: int = 0

    def __post_init__(self):
        if self.element_bits not in (16, 32):
            raise ValueError("element width must be 16 or 32 bits")
        if self.kind not in ("input", "output", "inout"):
            raise ValueError(f"bad array kind {self.kind!r}")
        if self.length <= 0:
            raise ValueError("array length must be positive")

    @property
    def element_bytes(self) -> int:
        """Element size in bytes (2 or 4)."""
        return self.element_bits // 8

    @property
    def value_mask(self) -> int:
        """All-ones mask of the element width."""
        return (1 << self.element_bits) - 1


# ---------------------------------------------------------------------------
# Expressions.
# ---------------------------------------------------------------------------


class Expr:
    """Base class for IR expressions."""

    __slots__ = ()

    def __deepcopy__(self, memo) -> "Expr":
        """Share the node: a deep copy of an expression is itself.

        Every expression is a frozen dataclass whose fields are ints,
        strings and other expressions, so no copy can diverge from it.
        The SWP and SWV passes deep-copy *statements* and rewrite those
        (``stmt.expr = ...``, ``stmt.accumulate = True``,
        ``loop.body = ...``), never an expression in place. Copying the
        expression trees, once per subword phase, was most of the SWP
        pass's time."""
        return self


@dataclass(frozen=True)
class Const(Expr):
    """A 32-bit integer literal."""

    value: int


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a scalar temporary or loop variable."""

    name: str


@dataclass(frozen=True)
class Load(Expr):
    """A full-element read ``array[index]``."""

    array: str
    index: Expr


@dataclass(frozen=True)
class SubwordLoad(Expr):
    """Load one subword of an element (SWP input access).

    ``offset`` is the subword's *bit offset* within the element. For
    widths that divide the element this is ``width * position``; for
    widths that do not (e.g. 3-bit subwords of a 16-bit element) the
    compiler aligns full subwords from the most significant bit down,
    leaving the partial subword at the bottom.
    """

    array: str
    index: Expr
    width: int  # subword width in bits
    offset: int  # bit offset of the subword within the element
    #: Sign-extend the subword to 32 bits (the most significant subword
    #: of a signed operand).
    signed: bool = False


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic/logical operation on two expressions."""

    op: str  # + - * & | ^ << >>
    lhs: Expr
    rhs: Expr

    _OPS = frozenset("+-*&|^") | {"<<", ">>"}

    def __post_init__(self):
        if self.op not in self._OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class MulAsp(Expr):
    """Anytime subword-pipelined multiply: ``(lhs * subword) << shift``.

    ``shift`` restores the subword's significance. When it is a
    multiple of ``width`` the shift is folded into the ``MUL_ASP``
    instruction's position operand; otherwise codegen emits an LSL.
    """

    lhs: Expr
    sub: Expr  # must evaluate to a `width`-bit subword
    width: int
    shift: int
    #: The subword register holds a sign-extended value: multiply as
    #: two's complement (the MUL_ASPS instruction).
    signed_sub: bool = False


@dataclass(frozen=True)
class VecOp(Expr):
    """Anytime subword-vectorized add/sub over packed plane words."""

    op: str  # "+" or "-"
    lhs: Expr
    rhs: Expr
    lane_bits: int

    def __post_init__(self):
        if self.op not in ("+", "-"):
            raise ValueError("vector ops are add/sub only")
        if self.lane_bits not in (4, 8, 16):
            raise ValueError("lane width must be 4, 8 or 16")


# ---------------------------------------------------------------------------
# Statements.
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


@dataclass
class Assign(Stmt):
    """Bind a scalar temporary: ``var = expr``."""

    var: str
    expr: Expr


@dataclass
class Store(Stmt):
    """Write (or accumulate into) ``array[index]``."""

    array: str
    index: Expr
    expr: Expr
    accumulate: bool = False  # True: X[i] += expr (read-modify-write)


@dataclass
class Loop(Stmt):
    """An affine counted loop ``for var in range(start, end, step)``."""

    var: str
    start: int
    end: int
    body: List[Stmt] = field(default_factory=list)
    step: int = 1

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("loop step must be positive")


@dataclass
class SkimPoint(Stmt):
    """Marker: an acceptable output exists here; codegen emits SKM END."""


# ---------------------------------------------------------------------------
# Kernel.
# ---------------------------------------------------------------------------


@dataclass
class Kernel:
    """A complete kernel: arrays, pragmas and a statement list."""

    name: str
    arrays: Dict[str, Array]
    body: List[Stmt]
    scalars: Tuple[str, ...] = ()

    def array(self, name: str) -> Array:
        """The declared array named ``name`` (KeyError if absent)."""
        return self.arrays[name]

    def inputs(self) -> List[Array]:
        """Arrays the kernel reads (``input`` and ``inout``)."""
        return [a for a in self.arrays.values() if a.kind in ("input", "inout")]

    def outputs(self) -> List[Array]:
        """Arrays the kernel writes (``output`` and ``inout``)."""
        return [a for a in self.arrays.values() if a.kind in ("output", "inout")]

    def validate(self) -> None:
        """Check that the body only references declared arrays/scalars."""
        declared = set(self.scalars)
        for stmt in _walk_statements(self.body):
            if isinstance(stmt, Loop):
                declared.add(stmt.var)
        for stmt in _walk_statements(self.body):
            for expr in _walk_statement_exprs(stmt):
                if isinstance(expr, Var) and expr.name not in declared:
                    raise ValueError(f"undeclared scalar {expr.name!r} in {self.name}")
                if isinstance(expr, (Load, SubwordLoad)) and expr.array not in self.arrays:
                    raise ValueError(f"undeclared array {expr.array!r} in {self.name}")
            if isinstance(stmt, Store) and stmt.array not in self.arrays:
                raise ValueError(f"undeclared array {stmt.array!r} in {self.name}")
            if isinstance(stmt, Assign) and stmt.var not in declared:
                raise ValueError(f"assignment to undeclared scalar {stmt.var!r}")


def _walk_statements(body: Sequence[Stmt]):
    for stmt in body:
        yield stmt
        if isinstance(stmt, Loop):
            yield from _walk_statements(stmt.body)


def _walk_statement_exprs(stmt: Stmt):
    if isinstance(stmt, Assign):
        yield from walk_exprs(stmt.expr)
    elif isinstance(stmt, Store):
        yield from walk_exprs(stmt.index)
        yield from walk_exprs(stmt.expr)


def walk_exprs(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first pre-order.

    An explicit stack instead of one nested generator per node: the
    right operand is pushed first so the left one is walked first."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        yield expr
        if isinstance(expr, BinOp):
            stack.append(expr.rhs)
            stack.append(expr.lhs)
        elif isinstance(expr, MulAsp):
            stack.append(expr.sub)
            stack.append(expr.lhs)
        elif isinstance(expr, VecOp):
            stack.append(expr.rhs)
            stack.append(expr.lhs)
        elif isinstance(expr, (Load, SubwordLoad)):
            stack.append(expr.index)


# ---------------------------------------------------------------------------
# Reference interpreter.
# ---------------------------------------------------------------------------


class Environment:
    """Interpreter state: scalar values and array contents."""

    def __init__(self, kernel: Kernel, inputs: Dict[str, Sequence[int]]):
        self.kernel = kernel
        self.scalars: Dict[str, int] = {name: 0 for name in kernel.scalars}
        self.arrays: Dict[str, List[int]] = {}
        for array in kernel.arrays.values():
            if array.kind in ("input", "inout"):
                values = list(inputs.get(array.name, [0] * array.length))
                if len(values) != array.length:
                    raise ValueError(
                        f"array {array.name!r} expects {array.length} values, "
                        f"got {len(values)}"
                    )
            else:
                values = [0] * array.length
            self.arrays[array.name] = [v & array.value_mask for v in values]


def evaluate(kernel: Kernel, inputs: Dict[str, Sequence[int]]) -> Dict[str, List[int]]:
    """Run the kernel's IR directly; returns the final array contents.

    This is the semantic reference the compiled machine code must match
    exactly (for precise builds) or converge to (for anytime builds).
    """
    env = Environment(kernel, inputs)
    _exec_body(kernel.body, env)
    return env.arrays


def _exec_body(body: Sequence[Stmt], env: Environment) -> None:
    for stmt in body:
        if isinstance(stmt, Assign):
            env.scalars[stmt.var] = _eval(stmt.expr, env) & MASK32
        elif isinstance(stmt, Store):
            array = env.kernel.arrays[stmt.array]
            index = _eval(stmt.index, env)
            value = _eval(stmt.expr, env)
            if stmt.accumulate:
                value += env.arrays[stmt.array][index]
            env.arrays[stmt.array][index] = value & array.value_mask
        elif isinstance(stmt, Loop):
            for i in range(stmt.start, stmt.end, stmt.step):
                env.scalars[stmt.var] = i
                _exec_body(stmt.body, env)
        elif isinstance(stmt, SkimPoint):
            pass  # no semantic effect under continuous power
        else:  # pragma: no cover - all statements enumerated
            raise TypeError(f"unknown statement {stmt!r}")


def _eval(expr: Expr, env: Environment) -> int:
    if isinstance(expr, Const):
        return expr.value & MASK32
    if isinstance(expr, Var):
        return env.scalars[expr.name]
    if isinstance(expr, Load):
        array = env.kernel.arrays[expr.array]
        value = env.arrays[expr.array][_eval(expr.index, env)]
        if array.signed and value & (1 << (array.element_bits - 1)):
            value |= MASK32 ^ array.value_mask  # sign-extend to 32 bits
        return value
    if isinstance(expr, SubwordLoad):
        value = env.arrays[expr.array][_eval(expr.index, env)]
        sub = (value >> expr.offset) & ((1 << expr.width) - 1)
        if expr.signed and sub & (1 << (expr.width - 1)):
            sub |= MASK32 ^ ((1 << expr.width) - 1)
        return sub
    if isinstance(expr, MulAsp):
        lhs = _eval(expr.lhs, env)
        if expr.signed_sub:
            sub = _eval(expr.sub, env) & MASK32
        else:
            sub = _eval(expr.sub, env) & ((1 << expr.width) - 1)
        return ((lhs * sub) << expr.shift) & MASK32
    if isinstance(expr, VecOp):
        lhs = _eval(expr.lhs, env)
        rhs = _eval(expr.rhs, env)
        mask = (1 << expr.lane_bits) - 1
        result = 0
        for shift in range(0, 32, expr.lane_bits):
            a = (lhs >> shift) & mask
            b = (rhs >> shift) & mask
            lane = a + b if expr.op == "+" else a - b
            result |= (lane & mask) << shift
        return result
    if isinstance(expr, BinOp):
        lhs = _eval(expr.lhs, env)
        rhs = _eval(expr.rhs, env)
        if expr.op == "+":
            return (lhs + rhs) & MASK32
        if expr.op == "-":
            return (lhs - rhs) & MASK32
        if expr.op == "*":
            return (lhs * rhs) & MASK32
        if expr.op == "&":
            return lhs & rhs
        if expr.op == "|":
            return lhs | rhs
        if expr.op == "^":
            return lhs ^ rhs
        if expr.op == "<<":
            return (lhs << min(rhs, 32)) & MASK32
        if expr.op == ">>":
            return (lhs & MASK32) >> min(rhs, 32)
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def evaluate_logical(
    kernel: Kernel, inputs: Dict[str, Sequence[int]]
) -> Dict[str, List[int]]:
    """Run a kernel whose arrays may be plane-packed, with *logical* I/O.

    Inputs are given as logical element values; arrays the SWV pass
    repacked are transposed into their subword-major layout before
    evaluation and outputs are transposed back. For row-major kernels
    this is identical to :func:`evaluate`.
    """
    from ..core import subword as sw

    packed_inputs: Dict[str, List[int]] = {}
    for name, values in inputs.items():
        array = kernel.arrays[name]
        if array.layout == PLANE_MAJOR:
            packed_inputs[name] = sw.pack_planes(
                list(values), array.layout_bits, array.logical_bits
            )
        elif array.layout == PLANE_PROVISIONED:
            packed_inputs[name] = sw.pack_planes_provisioned(
                list(values), array.layout_bits, array.logical_bits
            )
        else:
            packed_inputs[name] = list(values)

    raw = evaluate(kernel, packed_inputs)

    outputs: Dict[str, List[int]] = {}
    for name, values in raw.items():
        array = kernel.arrays[name]
        if array.layout == PLANE_MAJOR:
            outputs[name] = sw.unpack_planes(
                values, array.layout_bits, array.logical_bits, array.logical_length
            )
        elif array.layout == PLANE_PROVISIONED:
            outputs[name] = sw.unpack_planes_provisioned(
                values,
                array.layout_bits,
                array.logical_bits,
                array.logical_length,
                # Wrap at the logical width, like the row-major element.
                result_bits=array.logical_bits,
            )
        else:
            outputs[name] = values
    return outputs
