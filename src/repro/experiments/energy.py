"""Energy breakdown: where one input's energy goes.

For each runtime (Clank / Hibernus / NVP) and build (precise / WN
8-bit), one intermittent run's consumed cycles are attributed to:

* **useful** — the cycles a continuous run needs to reach the same
  accepted output (the full program for precise runs; up to the first
  skim point for skimmed WN runs);
* **re-executed** — program cycles replayed after restores;
* **checkpoint** / **restore** — the runtime's bookkeeping.

The decomposition explains the paper's observation that WN gains most
on checkpointing processors: skim points cut the re-executed and
checkpoint shares, which the NVP never paid in the first place (it pays
a per-cycle backup energy overhead instead, reported separately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.anytime import AnytimeKernel
from ..errors import IncompleteRun
from ..runtime.table import runtime_row
from ..workloads import make_workload
from .common import (
    ExperimentSetup,
    build_anytime,
    calibrate_environment,
    first_skim_cycles,
    measure_precise_cycles,
)
from .report import format_table

RUNTIMES = ("clank", "hibernus", "nvp")


@dataclass
class EnergyBreakdown:
    runtime: str
    build: str
    total_cycles: int
    useful_cycles: int
    reexecuted_cycles: int
    checkpoint_cycles: int
    restore_cycles: int
    backup_overhead_pct: float  # NVP-style per-cycle energy tax

    @property
    def overhead_fraction(self) -> float:
        return 1.0 - self.useful_cycles / self.total_cycles if self.total_cycles else 0.0


@dataclass
class EnergyResult:
    benchmark: str
    rows: List[EnergyBreakdown]

    def row(self, runtime: str, build: str) -> EnergyBreakdown:
        return next(r for r in self.rows if r.runtime == runtime and r.build == build)

    def as_text(self) -> str:
        table_rows = []
        for r in self.rows:
            table_rows.append(
                (
                    r.runtime,
                    r.build,
                    r.total_cycles,
                    f"{100 * r.useful_cycles / r.total_cycles:.0f}%",
                    f"{100 * r.reexecuted_cycles / r.total_cycles:.0f}%",
                    f"{100 * (r.checkpoint_cycles + r.restore_cycles) / r.total_cycles:.0f}%",
                    f"{r.backup_overhead_pct:.0f}%",
                )
            )
        return format_table(
            ["Runtime", "Build", "Total cycles", "Useful", "Re-executed",
             "Ckpt+restore", "Per-cycle backup tax"],
            table_rows,
            title=f"Energy breakdown per input ({self.benchmark})",
        )


def _analyze(
    workload, kernel: AnytimeKernel, runtime: str, environment, setup, useful_reference: int
) -> EnergyBreakdown:
    row = runtime_row(runtime)
    run = kernel.run_intermittent(
        workload.inputs,
        setup.traces()[0],
        runtime=runtime,
        capacitor=environment.capacitor(),
        energy_model=row.energy_model(),
        watchdog_cycles=row.watchdog(environment.watchdog_cycles),
        max_wall_ms=setup.max_wall_ms,
    )
    result = run.result
    if not result.completed:
        raise IncompleteRun(
            f"{workload.name} did not complete on {runtime}",
            outages=result.outages,
            active_cycles=result.active_cycles,
        )
    stats = result.runtime_stats
    total = result.active_cycles
    program = max(0, total - stats.checkpoint_cycles - stats.restore_cycles)
    useful = min(useful_reference, program)
    return EnergyBreakdown(
        runtime=runtime,
        build=kernel.kernel.name,
        total_cycles=total,
        useful_cycles=useful,
        reexecuted_cycles=max(0, program - useful),
        checkpoint_cycles=stats.checkpoint_cycles,
        restore_cycles=stats.restore_cycles,
        backup_overhead_pct=100.0 * row.backup_overhead,
    )


def run(
    setup: Optional[ExperimentSetup] = None,
    benchmark: str = "MatAdd",
) -> EnergyResult:
    setup = setup or ExperimentSetup(trace_count=1, invocations=1)
    workload = make_workload(benchmark, setup.scale)
    environment = calibrate_environment(measure_precise_cycles(workload), setup)

    precise = build_anytime(workload, "precise")
    precise_total = precise.run(workload.inputs).cycles
    wn = build_anytime(workload, workload.technique, 8)
    wn_first_skim, wn_total = first_skim_cycles(wn, workload.inputs)

    rows: List[EnergyBreakdown] = []
    for runtime in RUNTIMES:
        rows.append(_analyze(workload, precise, runtime, environment, setup, precise_total))
        # A skimmed WN run's useful work is its first-skim prefix; if it
        # happens to finish precisely, the whole build is useful.
        rows.append(_analyze(workload, wn, runtime, environment, setup, wn_total))
        rows[-1].useful_cycles = min(rows[-1].useful_cycles, wn_first_skim)
        program = rows[-1].total_cycles - rows[-1].checkpoint_cycles - rows[-1].restore_cycles
        rows[-1].reexecuted_cycles = max(0, program - rows[-1].useful_cycles)
    return EnergyResult(benchmark, rows)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
