"""Figure 13: memoization and zero skipping for Conv2d.

Speedup of Conv2d *when the earliest available output is taken* —
i.e. at the first skim point for anytime builds, at completion for the
precise build — with and without the 16-entry memoization table (which
also enables zero skipping). Results are normalized to the precise
build with no table.

Paper numbers: 4-bit 1.7x -> 1.97x, 8-bit 1.31x -> 1.42x, precise
1.0x -> 1.11x. The qualitative claims: memoization helps every
configuration, and smaller subwords benefit more (their operands repeat
and hit zero more often).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..workloads import make_workload
from .common import ExperimentSetup, build_anytime, first_skim_cycles
from .report import format_table

CONFIGS = (("precise", None), ("swp", 8), ("swp", 4))

PAPER_SPEEDUPS = {
    ("precise", None, False): 1.0,
    ("precise", None, True): 1.11,
    ("swp", 8, False): 1.31,
    ("swp", 8, True): 1.42,
    ("swp", 4, False): 1.7,
    ("swp", 4, True): 1.97,
}


@dataclass
class Fig13Result:
    #: cycles[(mode, bits, memoized)] -> cycles to earliest output
    cycles: Dict[Tuple[str, Optional[int], bool], int]
    hit_rates: Dict[Tuple[str, Optional[int]], float]

    def speedup(self, mode: str, bits: Optional[int], memoized: bool) -> float:
        baseline = self.cycles[("precise", None, False)]
        return baseline / self.cycles[(mode, bits, memoized)]

    def as_text(self) -> str:
        rows = []
        for mode, bits in CONFIGS:
            label = "Precise" if mode == "precise" else f"{bits}-bit"
            for memoized in (False, True):
                rows.append(
                    (
                        label,
                        "16-entry" if memoized else "No table",
                        f"{self.speedup(mode, bits, memoized):.2f}x",
                        f"{PAPER_SPEEDUPS[(mode, bits, memoized)]:.2f}x",
                        f"{self.hit_rates.get((mode, bits), 0.0) * 100:.1f}%" if memoized else "-",
                    )
                )
        return format_table(
            ["Config", "Memo table", "Speedup (ours)", "Speedup (paper)", "Hit rate"],
            rows,
            title="Figure 13: Conv2d earliest-output speedup with memoization + zero skipping",
        )


def run(setup: Optional[ExperimentSetup] = None) -> Fig13Result:
    setup = setup or ExperimentSetup()
    workload = make_workload("Conv2d", setup.scale)
    cycles: Dict[Tuple[str, Optional[int], bool], int] = {}
    hit_rates: Dict[Tuple[str, Optional[int]], float] = {}
    for mode, bits in CONFIGS:
        for memoized in (False, True):
            kernel = build_anytime(
                workload,
                mode,
                bits,
                memoization=memoized,
                zero_skipping=memoized,
            )
            cpu = kernel.make_cpu(workload.inputs)
            first = []
            cpu.skim_hook = lambda target, first=first, cpu=cpu: (
                first.append(cpu.stats.cycles) if not first else None
            )
            with cpu:
                total = cpu.run()
            cycles[(mode, bits, memoized)] = first[0] if first else total
            if memoized and cpu.multiplier.memo is not None:
                hit_rates[(mode, bits)] = cpu.multiplier.memo.hit_rate
    return Fig13Result(cycles, hit_rates)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
