"""The iterative multiplier with anytime-subword, memoization and
zero-skipping support.

The baseline core (ARM M0+) has no single-cycle hardware multiplier: a
16x16 product is computed iteratively, one operand bit per cycle, so a
full-precision multiply costs 16 cycles. The WN extension adds subword
variants ``MUL_ASP<B>`` that multiply by a single B-bit subword of the
second operand in B cycles and shift the partial product to the
subword's significance.

Two optional accelerators from the paper (Section V-E):

* **Zero skipping** — if either operand is zero the result is zero and
  is returned in a single cycle. Zero products are excluded from the
  memoization table.
* **Memoization** — a 16-entry direct-mapped table of previous products.
  The index is the concatenation of the two least significant bits of
  both operands; the tag is the concatenation of the remaining operand
  bits. A hit returns the product in one cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

MASK32 = 0xFFFFFFFF


class MemoTable:
    """Direct-mapped multiplication memoization table (paper Section V-E).

    ``entries`` defaults to 16. Indexing concatenates the 2 LSBs of each
    operand (4 bits -> 16 sets); the tag concatenates the upper operand
    bits. Products where either operand is zero are never inserted
    (zero skipping handles them in one cycle anyway).
    """

    def __init__(self, entries: int = 16):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("memo table entries must be a positive power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tags: list = [None] * entries
        self.values: list = [0] * entries
        self.hits = 0
        self.misses = 0

    def _index_tag(self, a: int, b: int) -> Tuple[int, int]:
        half = self.index_bits // 2
        rest = self.index_bits - half
        index = ((a & ((1 << half) - 1)) << rest) | (b & ((1 << rest) - 1))
        tag = ((a >> half) << 32) | (b >> rest)
        return index, tag

    def lookup(self, a: int, b: int) -> Optional[int]:
        """The memoized product of ``a`` and ``b``, or ``None`` on a
        miss; counts the hit or miss."""
        index, tag = self._index_tag(a, b)
        if self.tags[index] == tag:
            self.hits += 1
            return self.values[index]
        self.misses += 1
        return None

    def insert(self, a: int, b: int, product: int) -> None:
        """Store ``product`` in the set of ``(a, b)``, evicting its
        previous entry; products with a zero operand are skipped."""
        if a == 0 or b == 0:
            return
        index, tag = self._index_tag(a, b)
        self.tags[index] = tag
        self.values[index] = product

    def reset_stats(self) -> None:
        """Zero the hit and miss counters; the entries stay."""
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, or 0.0 before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Multiplier:
    """Functional + timing model of the (anytime) iterative multiplier."""

    __slots__ = ("memo", "zero_skipping", "full_width", "total_mul_cycles", "mul_count")

    def __init__(
        self,
        memo_table: Optional[MemoTable] = None,
        zero_skipping: bool = False,
        full_width: int = 16,
    ):
        self.memo = memo_table
        self.zero_skipping = zero_skipping
        self.full_width = full_width
        self.total_mul_cycles = 0
        self.mul_count = 0

    # -- full-precision multiply ---------------------------------------------

    def mul(self, a: int, b: int) -> Tuple[int, int]:
        """Full multiply ``a * b`` (mod 2^32). Returns (result, cycles)."""
        return self._multiply(a & MASK32, b & MASK32, self.full_width, shift=0)

    # -- anytime subword multiply ---------------------------------------------

    def mul_asp(self, a: int, subword: int, width: int, position: int) -> Tuple[int, int]:
        """Anytime multiply: ``(a * subword) << (width * position)``.

        ``subword`` is an unsigned ``width``-bit value (one subword of
        the original operand); the shift restores its significance so
        accumulating the per-subword products reconstructs the full
        product (distributivity over addition). Cost is ``width``
        cycles, or 1 with a memo hit / zero skip.
        """
        if width <= 0:
            raise ValueError("subword width must be positive")
        sub = subword & ((1 << width) - 1)
        return self._multiply(a & MASK32, sub, width, shift=width * position)

    def mul_asp_signed(self, a: int, subword: int, width: int, position: int) -> Tuple[int, int]:
        """Signed anytime multiply: ``(a * Rm) << (width * position)``.

        ``subword`` is a *sign-extended* most significant subword (the
        signed load already widened it to 32 bits); two's-complement
        multiplication mod 2^32 needs no masking. A Booth-style
        iteration over the ``width`` magnitude bits keeps the cost at
        ``width`` cycles, like the unsigned variant."""
        if width <= 0:
            raise ValueError("subword width must be positive")
        return self._multiply(a & MASK32, subword & MASK32, width,
                              shift=width * position)

    # -- shared core -----------------------------------------------------------

    def _multiply(self, a: int, b: int, iter_cycles: int, shift: int) -> Tuple[int, int]:
        self.mul_count += 1
        if self.zero_skipping and (a == 0 or b == 0):
            self.total_mul_cycles += 1
            return 0, 1
        if self.memo is not None:
            cached = self.memo.lookup(a, b)
            if cached is not None:
                self.total_mul_cycles += 1
                return (cached << shift) & MASK32, 1
        product = (a * b) & MASK32
        if self.memo is not None:
            self.memo.insert(a, b, product)
        self.total_mul_cycles += iter_cycles
        return (product << shift) & MASK32, iter_cycles

    def reset_stats(self) -> None:
        """Zero the cycle and multiply counters, and the memo table's."""
        self.total_mul_cycles = 0
        self.mul_count = 0
        if self.memo is not None:
            self.memo.reset_stats()
