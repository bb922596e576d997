"""Anytime subword pipelining (SWP) compiler pass.

Implements the paper's Algorithm 1 for long-latency operations: for
each multiply whose input operand carries a ``#pragma asp`` annotation,
the outermost loop containing it is *fissioned* into one copy per
subword, most significant first. In copy ``p`` the multiply is replaced
by its anytime equivalent (``MUL_ASP<B>`` with the subword position)
and the annotated operand's load becomes a subword load. A skim point
is inserted after every copy except the last, so a power outage can
accept the current approximation and move on.

Two accumulation shapes are handled, covering the benchmark suite:

* *phase-local accumulators* (Conv2d, MatMul, Listing 1): a scalar that
  is reset inside the fissioned region and stored to the output — later
  phases turn the store into a read-modify-write accumulate;
* *cross-phase reductions* (Var): a scalar that persists across phases
  (never reset inside the region) — derived stores stay absolute, so
  each phase overwrites the output with a better approximation.

Statements with no data dependence on the anytime multiply run only in
the first phase (re-executing them would double-count their effects).
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from typing import List, Optional, Set, Tuple

from ..ir import (
    Assign,
    BinOp,
    Const,
    Expr,
    Kernel,
    Load,
    Loop,
    MulAsp,
    SkimPoint,
    Stmt,
    Store,
    SubwordLoad,
    Var,
    walk_exprs,
    walk_statement_exprs,
    walk_statements,
)


class SwpError(ValueError):
    """Raised when the kernel has no SWP candidate or an unsupported shape."""


def apply_swp(kernel: Kernel, bits: Optional[int] = None) -> Kernel:
    """Return a new kernel with anytime subword pipelining applied.

    ``bits`` overrides the pragma's subword width (used by the design-
    space experiments that sweep 1/2/3/4/8-bit subwords).
    """
    # Input annotations name the subword-decomposed multiply operands;
    # an output annotation (Listing 1's `#pragma asp output(X)`) only
    # marks the result approximable.
    targets = {
        name: array.pragma
        for name, array in kernel.arrays.items()
        if array.pragma is not None
        and array.pragma.kind == "asp"
        and array.kind in ("input", "inout")
    }
    if not targets:
        raise SwpError(f"kernel {kernel.name!r} has no #pragma asp arrays")

    loop_index = _find_target_loop(kernel.body, set(targets))
    if loop_index is None:
        raise SwpError("no multiply of an asp-annotated array found in a loop")

    target_loop = kernel.body[loop_index]
    prologue = kernel.body[:loop_index]
    epilogue = kernel.body[loop_index + 1:]

    # All asp arrays feeding multiplies in this loop must agree on width.
    widths = {bits or pragma.bits for pragma in targets.values()}
    if len(widths) != 1:
        raise SwpError(f"conflicting subword widths {sorted(widths)}")
    width = widths.pop()

    element_bits = {kernel.arrays[name].element_bits for name in targets}
    if len(element_bits) != 1:
        raise SwpError("asp arrays must share an element width")
    schedule = subword_schedule(element_bits.pop(), width)
    phases = len(schedule)

    signed_targets = {
        name for name in targets if kernel.arrays[name].signed
    }
    new_body: List[Stmt] = list(copy.deepcopy(prologue))
    for phase, (phase_width, offset) in enumerate(schedule):
        phase_loop = copy.deepcopy(target_loop)
        # The most significant subword of a signed operand carries the
        # sign: the first phase loads it sign-extended and multiplies
        # with the signed variant (two's-complement decomposition).
        signed_phase = set(signed_targets) if phase == 0 else set()
        rewritten = _rewrite_loop(
            phase_loop, set(targets), phase_width, offset, signed_phase
        )
        if not rewritten:
            raise SwpError("target loop lost its multiply during rewrite")
        if phase > 0:
            _filter_to_dependent(phase_loop)
        _mark_accumulating_stores(phase_loop, first_phase=(phase == 0))
        new_body.append(phase_loop)
        new_body.extend(_phase_epilogue(epilogue, phase))
        if phase != phases - 1:
            new_body.append(SkimPoint())

    new_kernel = Kernel(
        name=f"{kernel.name}_swp{width}",
        arrays={name: replace(array) for name, array in kernel.arrays.items()},
        body=new_body,
        scalars=kernel.scalars,
    )
    new_kernel.validate()
    return new_kernel


def subword_schedule(element_bits: int, width: int) -> List[Tuple[int, int]]:
    """Phase schedule, most significant subword first: (width, bit offset).

    Full-width subwords are aligned from the element's most significant
    bit downward, so the first phase always carries a full ``width``
    bits of signal; a width that does not divide the element leaves a
    narrower final subword at the bottom (e.g. 3-bit subwords of a
    16-bit element: offsets 13, 10, 7, 4, 1, then a 1-bit remainder).
    """
    if width <= 0:
        raise SwpError("subword width must be positive")
    schedule: List[Tuple[int, int]] = []
    remaining = element_bits
    while remaining > 0:
        phase_width = min(width, remaining)
        remaining -= phase_width
        schedule.append((phase_width, remaining))
    return schedule


# ---------------------------------------------------------------------------
# Candidate discovery.
# ---------------------------------------------------------------------------


def _find_target_loop(body: List[Stmt], targets: Set[str]) -> Optional[int]:
    """Index (in ``body``) of the outermost loop containing an anytime
    multiply candidate."""
    for i, stmt in enumerate(body):
        if isinstance(stmt, Loop) and _loop_has_candidate(stmt, targets):
            return i
    return None


def _loop_has_candidate(loop: Loop, targets: Set[str]) -> bool:
    return any(
        _is_candidate_mul(node, targets)
        for stmt in walk_statements(loop.body)
        for node in walk_statement_exprs(stmt)
    )


def _is_candidate_mul(node: Expr, targets: Set[str]) -> bool:
    return (
        isinstance(node, BinOp)
        and node.op == "*"
        and (
            (isinstance(node.rhs, Load) and node.rhs.array in targets)
            or (isinstance(node.lhs, Load) and node.lhs.array in targets)
        )
    )


# ---------------------------------------------------------------------------
# Rewriting.
# ---------------------------------------------------------------------------


def _rewrite_loop(
    loop: Loop,
    targets: Set[str],
    width: int,
    offset: int,
    signed_targets: Optional[Set[str]] = None,
) -> bool:
    """Rewrite candidate multiplies in-place; returns True if any found."""
    found = False
    signed_targets = signed_targets or set()

    def anytime_mul(other: Expr, load: Load) -> MulAsp:
        signed = load.array in signed_targets
        return MulAsp(
            other,
            SubwordLoad(load.array, load.index, width, offset, signed=signed),
            width,
            offset,
            signed_sub=signed,
        )

    def rewrite(expr: Expr) -> Expr:
        nonlocal found
        if isinstance(expr, BinOp):
            lhs = rewrite(expr.lhs)
            rhs = rewrite(expr.rhs)
            if expr.op == "*":
                if isinstance(rhs, Load) and rhs.array in targets:
                    found = True
                    return anytime_mul(lhs, rhs)
                if isinstance(lhs, Load) and lhs.array in targets:
                    found = True
                    return anytime_mul(rhs, lhs)
            return BinOp(expr.op, lhs, rhs)
        return expr

    def rewrite_body(body: List[Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                stmt.expr = rewrite(stmt.expr)
            elif isinstance(stmt, Store):
                stmt.expr = rewrite(stmt.expr)
            elif isinstance(stmt, Loop):
                rewrite_body(stmt.body)

    rewrite_body(loop.body)
    return found


def _contains_mul_asp(expr: Expr) -> bool:
    return any(isinstance(node, MulAsp) for node in walk_exprs(expr))


def _expr_vars(expr: Expr) -> Set[str]:
    return {node.name for node in walk_exprs(expr) if isinstance(node, Var)}


def _tainted_vars(loop: Loop) -> Set[str]:
    """Scalars whose value depends on the anytime multiply (fixpoint)."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for stmt in walk_statements(loop.body):
            if isinstance(stmt, Assign):
                if _contains_mul_asp(stmt.expr) or (_expr_vars(stmt.expr) & tainted):
                    if stmt.var not in tainted:
                        tainted.add(stmt.var)
                        changed = True
    return tainted


def _phase_local_vars(loop: Loop) -> Set[str]:
    """Scalars reset to a constant inside the region.

    Their lifetime is bounded by one phase, so re-running their defining
    statements in every phase is safe (and necessary: e.g. a per-element
    accumulator, or a per-element mean that a tainted value is derived
    from)."""
    return {
        stmt.var
        for stmt in walk_statements(loop.body)
        if isinstance(stmt, Assign) and isinstance(stmt.expr, Const)
    }


def _filter_to_dependent(loop: Loop) -> None:
    """Drop statements whose re-execution would double-count.

    The only unsafe statements in later phases are accumulations into
    *cross-phase persistent* untainted scalars (e.g. ``total += X[i]``
    where ``total`` is never reset inside the region): running them once
    per phase would multiply their effect. Phase-local state (reset to a
    constant in the region) and the tainted multiply chain re-run in
    every phase by construction.
    """
    tainted = _tainted_vars(loop)
    phase_local = _phase_local_vars(loop)

    def keep(stmt: Stmt) -> bool:
        if isinstance(stmt, Loop):
            stmt.body = [s for s in stmt.body if keep(s)]
            return bool(stmt.body)
        if isinstance(stmt, Assign):
            self_accumulating = stmt.var in _expr_vars(stmt.expr)
            persistent = stmt.var not in phase_local
            unsafe = (
                self_accumulating
                and persistent
                and not _contains_mul_asp(stmt.expr)
                and stmt.var not in tainted
            )
            return not unsafe
        return True

    loop.body = [s for s in loop.body if keep(s)]


def _mark_accumulating_stores(loop: Loop, first_phase: bool) -> None:
    """Stores of *tainted* values hold per-phase partial contributions:
    later phases must read-modify-write them. Untainted stores re-write
    the same (recomputed) value and stay absolute."""
    if first_phase:
        return
    tainted = _tainted_vars(loop)
    phase_local = _phase_local_vars(loop)
    for stmt in walk_statements(loop.body):
        if isinstance(stmt, Store) and not stmt.accumulate:
            if _contains_mul_asp(stmt.expr):
                stmt.accumulate = True
                continue
            tainted_refs = _expr_vars(stmt.expr) & tainted
            if tainted_refs and tainted_refs <= phase_local:
                # Taint flows through phase-local accumulators only:
                # the stored value is this phase's contribution.
                stmt.accumulate = True
            # Tainted refs that persist across phases hold *cumulative*
            # values; storing them absolutely is already correct.


def _phase_epilogue(epilogue: List[Stmt], phase: int) -> List[Stmt]:
    """Clone the post-loop statements for each phase.

    Statements after the fissioned loop (e.g. Var's final variance
    computation and store) re-run after every phase so the output in
    memory improves at each phase boundary. In later phases they see the
    cross-phase reduction scalars, which persist in registers.
    """
    return copy.deepcopy(epilogue)
