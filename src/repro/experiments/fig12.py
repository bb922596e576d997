"""Figure 12: combining subword vectorization with subword pipelining.

MatMul's SWP build loads one subword of A per multiply (an LDRB each);
transposing A to subword-major order lets one 32-bit load fetch the
same-significance subword of 32/W consecutive k-elements, spending one
load (and one pointer bump) per group instead of per element. The paper
reports the approximate output becoming available 1.08x (8-bit) and
1.24x (4-bit) earlier.

The metric here matches the paper's: time to the earliest available
output (the first skim point), with the non-vectorized SWP build as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compiler.codegen import compile_kernel
from ..compiler.passes.swp import apply_swp
from ..sim.cpu import CPU
from ..sim.memory import default_memory
from ..workloads import matmul
from .common import ExperimentSetup
from .report import format_table

PAPER_EARLIER = {8: 1.08, 4: 1.24}


@dataclass
class Fig12Row:
    bits: int
    plain_first_output: int
    vectorized_first_output: int
    plain_total: int
    vectorized_total: int

    @property
    def earlier_factor(self) -> float:
        return self.plain_first_output / self.vectorized_first_output


@dataclass
class Fig12Result:
    rows: List[Fig12Row]

    def as_text(self) -> str:
        return format_table(
            ["Subword", "SWP first output", "+vector loads", "Earlier (ours)", "Earlier (paper)"],
            [
                (f"{r.bits}-bit", r.plain_first_output, r.vectorized_first_output,
                 f"{r.earlier_factor:.2f}x", f"{PAPER_EARLIER[r.bits]:.2f}x")
                for r in self.rows
            ],
            title="Figure 12: MatMul subword pipelining with vectorized loads",
        )


def _first_skim_and_total(kernel, inputs) -> Tuple[int, int]:
    compiled = compile_kernel(kernel)
    cpu = compiled.make_cpu(inputs, memory=default_memory())
    first: List[int] = []
    cpu.skim_hook = lambda target: first.append(cpu.stats.cycles) if not first else None
    with cpu:
        total = cpu.run()
    return (first[0] if first else total), total


def run(setup: Optional[ExperimentSetup] = None,
        widths: Tuple[int, ...] = (8, 4)) -> Fig12Result:
    setup = setup or ExperimentSetup()
    n = matmul.SHAPES[setup.scale]
    high = matmul.value_bound(n)
    inputs = {
        "A": matmul.matrix(n, 1, 0, high),
        "B": matmul.matrix(n, 2, 0, high),
    }
    rows: List[Fig12Row] = []
    for bits in widths:
        plain_first, plain_total = _first_skim_and_total(
            apply_swp(matmul.build_kernel(n, bits)), inputs
        )
        vec_first, vec_total = _first_skim_and_total(
            matmul.build_kernel_vectorized_loads(n, bits), inputs
        )
        rows.append(
            Fig12Row(
                bits=bits,
                plain_first_output=plain_first,
                vectorized_first_output=vec_first,
                plain_total=plain_total,
                vectorized_total=vec_total,
            )
        )
    return Fig12Result(rows)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
