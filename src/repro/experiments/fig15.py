"""Figure 15: subword pipelining with small subwords (1/2/3/4 bits).

Speedup (relative to the precise baseline) and NRMSE of Conv2d when the
application is terminated as soon as the earliest approximate output is
available — i.e. right after the most significant subword pass. The
paper's claim: smaller subwords yield greater speedups at higher error
(their Figure 15 shows ~2.26x at 1 bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.quality import nrmse
from ..workloads import make_workload
from .common import ExperimentSetup, build_anytime
from .report import format_table

WIDTHS = (1, 2, 3, 4)


@dataclass
class Fig15Row:
    bits: int
    speedup: float
    error: float
    first_output_cycles: int


@dataclass
class Fig15Result:
    rows: List[Fig15Row]
    baseline_cycles: int

    def as_text(self) -> str:
        return format_table(
            ["Subword", "Speedup", "NRMSE %", "Earliest output (cycles)"],
            [
                (f"{r.bits}-bit", f"{r.speedup:.2f}x", f"{r.error:.2f}", r.first_output_cycles)
                for r in self.rows
            ],
            title="Figure 15: Conv2d earliest-output speedup/error with small subwords",
        )


def run(setup: Optional[ExperimentSetup] = None,
        widths: Tuple[int, ...] = WIDTHS) -> Fig15Result:
    setup = setup or ExperimentSetup()
    workload = make_workload("Conv2d", setup.scale)
    reference = workload.decoded_reference()

    precise = build_anytime(workload, "precise")
    baseline_cycles = precise.run(workload.inputs).cycles

    rows: List[Fig15Row] = []
    for bits in widths:
        kernel = build_anytime(workload, "swp", bits)
        cpu = kernel.make_cpu(workload.inputs)
        first: List[int] = []

        def cut_power(target: int, first=first, cpu=cpu) -> None:
            # Terminate exactly at the first skim point: the earliest
            # moment an approximate output is available.
            if not first:
                first.append(cpu.stats.cycles)
                cpu.halted = True

        cpu.skim_hook = cut_power
        with cpu:
            cpu.run()
        first_cycles = first[0] if first else cpu.stats.cycles
        error = nrmse(reference, workload.decode(kernel.read_outputs(cpu)))
        rows.append(
            Fig15Row(
                bits=bits,
                speedup=baseline_cycles / first_cycles,
                error=error,
                first_output_cycles=first_cycles,
            )
        )
    return Fig15Result(rows, baseline_cycles)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
