"""Anytime subword vectorization (SWV) compiler pass.

Implements the paper's Section III-B: element-wise short-latency
operations (add, sub, and, or, xor) over ``#pragma asv`` arrays are
transposed into *subword-major* order (Figure 7) and executed one
significance plane at a time, most significant plane first, with one
32-bit operation covering 32/W elements per cycle. Addition uses the
``ADD_ASV<L>`` lane-cut adder; with ``provisioned`` pragmas each W-bit
subword gets a 2W-bit lane so carry-outs survive and the precise result
is eventually reached. Logical operations vectorize for free on the
full-width ALU.

Two shapes are handled, covering the benchmark suite:

* *element-wise map/accumulate* (MatAdd, Home):
  ``X[f(i)] (+)= A[g(i)] op B[h(i)]`` inside a loop over ``i`` — the
  loop is fissioned per plane and strip-mined to packed words;
* *vector reduction* (NetMotion): ``acc += D[i]`` — per plane, lanes
  accumulate partial sums in a register which is then folded
  horizontally into the scalar, so the stored output improves in steps
  at each plane boundary.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from ...core.subword import group_size, plane_count
from ..ir import (
    Assign,
    Array,
    BinOp,
    Const,
    Expr,
    Kernel,
    Load,
    Loop,
    PLANE_MAJOR,
    PLANE_PROVISIONED,
    SkimPoint,
    Stmt,
    Store,
    Var,
    VecOp,
    walk_exprs,
    walk_statements,
)

#: Operators SWV can vectorize. + and - need the lane-cut adder; the
#: logical ops are element-wise on the binary expansion already.
VECTOR_OPS = frozenset({"+", "-", "&", "|", "^"})
LOGICAL_OPS = frozenset({"&", "|", "^"})


#: Subword widths SWV packs (a 32-bit word holds 4- or 8-bit lanes).
SWV_WIDTHS = (4, 8)


class SwvError(ValueError):
    """Raised when the kernel has no SWV candidate or an unsupported shape."""


def apply_swv(kernel: Kernel, bits: Optional[int] = None) -> Kernel:
    """Return a new kernel with anytime subword vectorization applied."""
    targets = {
        name: array
        for name, array in kernel.arrays.items()
        if array.pragma is not None and array.pragma.kind == "asv"
    }
    if not targets:
        raise SwvError(f"kernel {kernel.name!r} has no #pragma asv arrays")

    widths = {bits or a.pragma.bits for a in targets.values()}
    if len(widths) != 1:
        raise SwvError(f"conflicting subword widths {sorted(widths)}")
    width = widths.pop()
    if width not in SWV_WIDTHS:
        raise SwvError(f"SWV supports 4- and 8-bit subwords, not {width}")

    element_bits = {a.element_bits for a in targets.values()}
    if len(element_bits) != 1:
        raise SwvError("asv arrays must share an element width")
    ebits = element_bits.pop()

    provisioned = any(a.pragma.provisioned for a in targets.values())

    loop_index = _find_target_loop(kernel.body, set(targets))
    if loop_index is None:
        raise SwvError("no vectorizable op over asv-annotated arrays found")

    reduction = _match_reduction(kernel.body[loop_index], set(targets))
    transform = _ReductionTransform if reduction else _MapTransform
    return transform(kernel, set(targets), width, ebits, provisioned, loop_index).run()


# ---------------------------------------------------------------------------
# Candidate discovery.
# ---------------------------------------------------------------------------


def _find_target_loop(body: List[Stmt], targets: Set[str]) -> Optional[int]:
    for i, stmt in enumerate(body):
        if isinstance(stmt, Loop) and _loop_has_candidate(stmt, targets):
            return i
    return None


def _loop_has_candidate(loop: Loop, targets: Set[str]) -> bool:
    for stmt in walk_statements(loop.body):
        exprs = []
        if isinstance(stmt, Assign):
            exprs = [stmt.expr]
        elif isinstance(stmt, Store):
            exprs = [stmt.expr]
            if stmt.array in targets:
                return True
        for expr in exprs:
            for node in walk_exprs(expr):
                if isinstance(node, Load) and node.array in targets:
                    return True
    return False


def _match_reduction(loop: Loop, targets: Set[str]) -> bool:
    """Is this loop ``acc (+)= D[i]`` over an annotated array?"""
    body = [s for s in loop.body if not isinstance(s, SkimPoint)]
    if len(body) != 1 or not isinstance(body[0], Assign):
        return False
    expr = body[0].expr
    return (
        isinstance(expr, BinOp)
        and expr.op == "+"
        and isinstance(expr.lhs, Var)
        and expr.lhs.name == body[0].var
        and isinstance(expr.rhs, Load)
        and expr.rhs.array in targets
    )


# ---------------------------------------------------------------------------
# Shared machinery.
# ---------------------------------------------------------------------------


class _SwvTransform:
    def __init__(
        self,
        kernel: Kernel,
        targets: Set[str],
        width: int,
        element_bits: int,
        provisioned: bool,
        loop_index: int,
    ):
        self.kernel = kernel
        self.targets = targets
        self.width = width
        self.element_bits = element_bits
        self.provisioned = provisioned
        self.loop_index = loop_index
        self.lane_bits = 2 * width if provisioned else width
        self.group = group_size(self.lane_bits)
        self.planes = plane_count(width, element_bits)
        self.layout = PLANE_PROVISIONED if provisioned else PLANE_MAJOR

    def repacked_arrays(self) -> Dict[str, Array]:
        """New array table with annotated arrays in plane-major layout."""
        arrays = {}
        for name, array in self.kernel.arrays.items():
            if name in self.targets:
                padded = ((array.length + self.group - 1) // self.group) * self.group
                groups = padded // self.group
                arrays[name] = replace(
                    array,
                    length=self.planes * groups,
                    element_bits=32,
                    layout=self.layout,
                    layout_bits=self.width,
                    logical_length=array.length,
                    logical_bits=array.element_bits,
                )
            else:
                arrays[name] = replace(array)
        return arrays

    def groups_of(self, name: str) -> int:
        array = self.kernel.arrays[name]
        padded = ((array.length + self.group - 1) // self.group) * self.group
        return padded // self.group

    def scale_index(self, expr: Expr, loop_var: str, group_var: str) -> Expr:
        """Rewrite a logical element index into a packed word index
        *within one plane* (the plane offset is added separately).

        The inner loop variable maps to the group counter; constants and
        constant strides are divided by the group size (they must be
        divisible — the workloads size their arrays accordingly).
        """
        if isinstance(expr, Var):
            if expr.name == loop_var:
                return Var(group_var)
            return expr
        if isinstance(expr, Const):
            if expr.value % self.group:
                raise SwvError(
                    f"index constant {expr.value} not divisible by group size {self.group}"
                )
            return Const(expr.value // self.group)
        if isinstance(expr, BinOp):
            if expr.op == "+":
                return BinOp(
                    "+",
                    self.scale_index(expr.lhs, loop_var, group_var),
                    self.scale_index(expr.rhs, loop_var, group_var),
                )
            if expr.op == "*":
                # var * stride: scale the constant stride.
                lhs, rhs = expr.lhs, expr.rhs
                if isinstance(rhs, Const):
                    return BinOp("*", lhs, self.scale_index(rhs, loop_var, group_var))
                if isinstance(lhs, Const):
                    return BinOp("*", self.scale_index(lhs, loop_var, group_var), rhs)
        raise SwvError(f"unsupported index shape for SWV: {expr!r}")

    def plane_offset(self, name: str, plane: int) -> Const:
        return Const(plane * self.groups_of(name))

    def build(self, name_suffix: str, body: List[Stmt], scalars: Tuple[str, ...]) -> Kernel:
        kernel = Kernel(
            name=f"{self.kernel.name}_{name_suffix}",
            arrays=self.repacked_arrays(),
            body=body,
            scalars=scalars,
        )
        kernel.validate()
        return kernel


# ---------------------------------------------------------------------------
# Element-wise map / accumulate (MatAdd, Home).
# ---------------------------------------------------------------------------


class _MapTransform(_SwvTransform):
    """``X[f(i)] (+)= A[g(i)] op B[h(i)]`` -> plane-fissioned packed ops."""

    GROUP_VAR = "_g"

    def run(self) -> Kernel:
        target_loop = self.kernel.body[self.loop_index]
        prologue = self.kernel.body[: self.loop_index]
        epilogue = self.kernel.body[self.loop_index + 1:]

        new_body: List[Stmt] = list(copy.deepcopy(prologue))
        for phase in range(self.planes):
            new_body.append(self._phase_loop(target_loop, phase))
            new_body.extend(copy.deepcopy(epilogue))
            if phase != self.planes - 1:
                new_body.append(SkimPoint())

        scalars = tuple(self.kernel.scalars) + (self.GROUP_VAR,)
        suffix = "swv{}{}".format(self.width, "p" if self.provisioned else "")
        return self.build(suffix, new_body, scalars)

    def _phase_loop(self, loop: Loop, plane: int) -> Loop:
        return self._transform_loop(copy.deepcopy(loop), plane, vector_var=loop.var)

    def _transform_loop(self, loop: Loop, plane: int, vector_var: str) -> Loop:
        """Rewrite the element loop into a loop over packed groups.

        The *vector loop* is the innermost loop indexing the annotated
        arrays; enclosing loops (e.g. Home's sample loop) are kept and
        recursed into."""
        has_nested_vector = any(
            isinstance(s, Loop) and self._references_targets_via(s.var, s.body)
            for s in loop.body
        )
        if has_nested_vector:
            loop.body = [
                self._transform_loop(s, plane, vector_var)
                if isinstance(s, Loop)
                else self._transform_stmt(s, plane, loop.var)
                for s in loop.body
            ]
            return loop

        # This is the vector loop: strip-mine it over packed groups.
        if (loop.end - loop.start) % self.group:
            raise SwvError(
                f"trip count {loop.end - loop.start} not divisible by group {self.group}"
            )
        new_loop = Loop(
            var=self.GROUP_VAR,
            start=loop.start // self.group,
            end=loop.start // self.group + (loop.end - loop.start) // self.group,
            body=[self._transform_stmt(s, plane, loop.var) for s in loop.body],
        )
        return new_loop

    def _references_targets_via(self, var: str, body: List[Stmt]) -> bool:
        """True if accesses to annotated arrays are indexed by ``var``."""
        for stmt in walk_statements(body):
            nodes = []
            if isinstance(stmt, Store) and stmt.array in self.targets:
                nodes.append(stmt.index)
            if isinstance(stmt, (Assign, Store)):
                for node in walk_exprs(stmt.expr):
                    if isinstance(node, Load) and node.array in self.targets:
                        nodes.append(node.index)
            for index in nodes:
                if any(isinstance(n, Var) and n.name == var for n in walk_exprs(index)):
                    return True
        return False

    def _transform_stmt(self, stmt: Stmt, plane: int, loop_var: str) -> Stmt:
        if isinstance(stmt, Loop):
            return self._transform_loop(stmt, plane, loop_var)
        if isinstance(stmt, Store):
            if stmt.array not in self.targets:
                raise SwvError(f"store to non-asv array {stmt.array!r} in SWV loop")
            index = BinOp(
                "+",
                self.plane_offset(stmt.array, plane),
                self.scale_index(stmt.index, loop_var, self.GROUP_VAR),
            )
            expr = self._vectorize(stmt.expr, plane, loop_var)
            if stmt.accumulate:
                # Packed read-modify-write through the lane-cut adder.
                expr = VecOp("+", Load(stmt.array, index), expr, self.lane_bits)
                return Store(stmt.array, index, expr, accumulate=False)
            return Store(stmt.array, index, expr, accumulate=False)
        raise SwvError(f"unsupported statement in SWV loop: {stmt!r}")

    def _vectorize(self, expr: Expr, plane: int, loop_var: str) -> Expr:
        if isinstance(expr, Load):
            if expr.array not in self.targets:
                raise SwvError(f"load from non-asv array {expr.array!r} in SWV loop")
            index = BinOp(
                "+",
                self.plane_offset(expr.array, plane),
                self.scale_index(expr.index, loop_var, self.GROUP_VAR),
            )
            return Load(expr.array, index)
        if isinstance(expr, BinOp):
            if expr.op not in VECTOR_OPS:
                raise SwvError(f"operator {expr.op!r} is not vectorizable")
            lhs = self._vectorize(expr.lhs, plane, loop_var)
            rhs = self._vectorize(expr.rhs, plane, loop_var)
            if expr.op in LOGICAL_OPS:
                # Bitwise ops are lane-oblivious: full-width op suffices
                # (the paper: "no new instructions nor changes to hardware").
                return BinOp(expr.op, lhs, rhs)
            return VecOp(expr.op, lhs, rhs, self.lane_bits)
        raise SwvError(f"unsupported expression in SWV loop: {expr!r}")


# ---------------------------------------------------------------------------
# Vector reduction (NetMotion).
# ---------------------------------------------------------------------------


class _ReductionTransform(_SwvTransform):
    """``acc += D[i]`` -> per-plane lane accumulation + horizontal fold.

    Lane partial sums are *strip-mined*: the packed accumulator is
    folded into the scalar total after at most :meth:`strip_groups`
    packed words, so provisioned lanes can never overflow regardless of
    the array length.
    """

    GROUP_VAR = "_g"
    VACC_VAR = "_vacc"

    def run(self) -> Kernel:
        loop = self.kernel.body[self.loop_index]
        assign = next(s for s in loop.body if isinstance(s, Assign))
        acc_name = assign.var
        load = assign.expr.rhs
        array_name = load.array

        prologue = self.kernel.body[: self.loop_index]
        epilogue = self.kernel.body[self.loop_index + 1:]
        groups = self.groups_of(array_name)
        strip = self.strip_groups()

        new_body: List[Stmt] = list(copy.deepcopy(prologue))
        for phase in range(self.planes):
            significance = self.planes - 1 - phase
            for strip_start in range(0, groups, strip):
                strip_end = min(groups, strip_start + strip)
                # vacc = 0; for g in strip: vacc = vacc +v D[plane_base + g]
                new_body.append(Assign(self.VACC_VAR, Const(0)))
                new_body.append(
                    Loop(
                        var=self.GROUP_VAR,
                        start=strip_start,
                        end=strip_end,
                        body=[
                            Assign(
                                self.VACC_VAR,
                                VecOp(
                                    "+",
                                    Var(self.VACC_VAR),
                                    Load(
                                        array_name,
                                        BinOp(
                                            "+",
                                            self.plane_offset(array_name, phase),
                                            Var(self.GROUP_VAR),
                                        ),
                                    ),
                                    self.lane_bits,
                                ),
                            )
                        ],
                    )
                )
                new_body.extend(self._fold(acc_name, significance))
            new_body.extend(copy.deepcopy(epilogue))
            if phase != self.planes - 1:
                new_body.append(SkimPoint())

        scalars = tuple(self.kernel.scalars) + (self.GROUP_VAR, self.VACC_VAR)
        suffix = "swv{}{}r".format(self.width, "p" if self.provisioned else "")
        return self.build(suffix, new_body, scalars)

    def _fold(self, acc_name: str, significance: int) -> List[Stmt]:
        """Horizontal fold: acc += sum(lanes) << significance*W."""
        lane_mask = (1 << self.lane_bits) - 1
        statements: List[Stmt] = []
        for lane in range(32 // self.lane_bits):
            lane_value = BinOp(
                "&",
                BinOp(">>", Var(self.VACC_VAR), Const(lane * self.lane_bits)),
                Const(lane_mask),
            )
            statements.append(
                Assign(
                    acc_name,
                    BinOp(
                        "+",
                        Var(acc_name),
                        BinOp("<<", lane_value, Const(significance * self.width)),
                    ),
                )
            )
        return statements

    def strip_groups(self) -> int:
        """Packed words safely accumulable before a fold is required.

        Unprovisioned lanes wrap by design (lossy mode), so the strip is
        unbounded; provisioned lanes must hold ``strip * (2^W - 1)``."""
        if not self.provisioned:
            return 1 << 30
        per_word_max = (1 << self.width) - 1
        return max(1, ((1 << self.lane_bits) - 1) // per_word_max)
