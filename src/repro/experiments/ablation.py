"""Design-space ablations beyond the paper's figures.

Three sweeps the paper's text motivates but does not plot:

* **Memoization table size** (footnote 5: "more entries only provides
  modest additional improvements at the cost of extra area") — Conv2d's
  earliest-output speedup vs table entries.
* **Storage capacitance** — how the WN speedup over the precise baseline
  varies with the energy stored per charge (more outages per input →
  skim points pay off more).
* **Clank watchdog period** — the checkpoint-overhead vs re-execution
  trade-off for the intermittent baseline.
* **Runtime comparison** — Clank vs Hibernus (just-in-time snapshot) vs
  NVP on the same workload and traces.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.anytime import AnytimeConfig, AnytimeKernel
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..sim.multiplier import MemoTable, Multiplier
from ..workloads import make_workload
from .common import (
    Environment,
    ExperimentSetup,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    median_speedup,
    run_benchmark,
    worker_workload,
)
from .report import format_table


# ---------------------------------------------------------------------------
# Memoization table size (paper footnote 5).
# ---------------------------------------------------------------------------


@dataclass
class MemoSweepResult:
    #: entries -> (earliest-output cycles, hit rate); entries=0 means no table.
    points: Dict[int, Tuple[int, float]]

    def speedup(self, entries: int) -> float:
        return self.points[0][0] / self.points[entries][0]

    def as_text(self) -> str:
        rows = []
        for entries in sorted(self.points):
            cycles, hit_rate = self.points[entries]
            rows.append(
                (
                    "no table" if entries == 0 else f"{entries}-entry",
                    cycles,
                    f"{self.speedup(entries):.3f}x",
                    f"{hit_rate * 100:.1f}%" if entries else "-",
                )
            )
        return format_table(
            ["Memo table", "Earliest output (cycles)", "Speedup", "Hit rate"],
            rows,
            title="Ablation: memoization table size (Conv2d, 4-bit SWP)",
        )


def run_memo_sweep(
    setup: Optional[ExperimentSetup] = None,
    entries_list: Tuple[int, ...] = (0, 4, 16, 64, 256),
    bits: int = 4,
) -> MemoSweepResult:
    setup = setup or ExperimentSetup()
    workload = make_workload("Conv2d", setup.scale)
    points: Dict[int, Tuple[int, float]] = {}
    for entries in entries_list:
        config = AnytimeConfig(
            mode="swp",
            bits=bits,
            memoization=entries > 0,
            memo_entries=max(entries, 1),
            zero_skipping=entries > 0,
        )
        kernel = AnytimeKernel(workload.kernel, config)
        cpu = kernel.make_cpu(workload.inputs)
        first: List[int] = []
        cpu.skim_hook = lambda target: first.append(cpu.stats.cycles) if not first else None
        total = cpu.run()
        hit_rate = cpu.multiplier.memo.hit_rate if cpu.multiplier.memo else 0.0
        points[entries] = (first[0] if first else total, hit_rate)
    return MemoSweepResult(points)


# ---------------------------------------------------------------------------
# Capacitor size sweep.
# ---------------------------------------------------------------------------


@dataclass
class CapacitorSweepRow:
    charges_per_run: float
    swing_cycles: int
    speedup_8bit: float
    speedup_4bit: float


@dataclass
class CapacitorSweepResult:
    benchmark: str
    rows: List[CapacitorSweepRow]

    def as_text(self) -> str:
        return format_table(
            ["Charges per input", "Swing (cycles)", "8-bit speedup", "4-bit speedup"],
            [
                (f"{r.charges_per_run:.0f}", r.swing_cycles,
                 f"{r.speedup_8bit:.2f}x", f"{r.speedup_4bit:.2f}x")
                for r in self.rows
            ],
            title=f"Ablation: storage capacitor size ({self.benchmark})",
        )


def run_capacitor_sweep(
    setup: Optional[ExperimentSetup] = None,
    benchmark: str = "MatAdd",
    charges: Tuple[float, ...] = (3.0, 6.0, 12.0, 24.0),
) -> CapacitorSweepResult:
    """More outages per input -> skim points matter more."""
    setup = setup or ExperimentSetup(trace_count=3, invocations=1)
    workload = worker_workload(benchmark, setup.scale)
    precise_cycles = measure_precise_cycles(workload)
    rows: List[CapacitorSweepRow] = []
    for charges_per_run in charges:
        sweep_setup = ExperimentSetup(
            scale=setup.scale,
            trace_count=setup.trace_count,
            invocations=setup.invocations,
            charges_per_run=charges_per_run,
            min_swing_cycles=400,
        )
        env = calibrate_environment(precise_cycles, sweep_setup)
        baseline = run_benchmark(workload, "precise", None, "clank", sweep_setup, env)
        wn8 = run_benchmark(workload, workload.technique, 8, "clank", sweep_setup, env)
        wn4 = run_benchmark(workload, workload.technique, 4, "clank", sweep_setup, env)
        rows.append(
            CapacitorSweepRow(
                charges_per_run=charges_per_run,
                swing_cycles=env.swing_cycles,
                speedup_8bit=median_speedup(baseline, wn8),
                speedup_4bit=median_speedup(baseline, wn4),
            )
        )
    return CapacitorSweepResult(benchmark, rows)


# ---------------------------------------------------------------------------
# Clank watchdog sweep.
# ---------------------------------------------------------------------------


@dataclass
class WatchdogSweepRow:
    watchdog_fraction: float
    watchdog_cycles: int
    median_wall_ms: float
    outages: int


@dataclass
class WatchdogSweepResult:
    benchmark: str
    rows: List[WatchdogSweepRow]

    def best_fraction(self) -> float:
        return min(self.rows, key=lambda r: r.median_wall_ms).watchdog_fraction

    def as_text(self) -> str:
        return format_table(
            ["Watchdog (fraction of a charge)", "Cycles", "Median wall (ms)", "Outages"],
            [
                (f"{r.watchdog_fraction:.2f}", r.watchdog_cycles,
                 f"{r.median_wall_ms:.0f}", r.outages)
                for r in self.rows
            ],
            title=f"Ablation: Clank watchdog period ({self.benchmark}, precise build)",
        )


def run_watchdog_sweep(
    setup: Optional[ExperimentSetup] = None,
    benchmark: str = "MatAdd",
    fractions: Tuple[float, ...] = (0.05, 0.15, 0.35, 0.5, 0.8),
) -> WatchdogSweepResult:
    """Frequent checkpoints waste cycles; rare ones waste re-execution."""
    setup = setup or ExperimentSetup(trace_count=3, invocations=1)
    workload = worker_workload(benchmark, setup.scale)
    base_env = calibrate_environment(measure_precise_cycles(workload), setup)
    rows: List[WatchdogSweepRow] = []
    for fraction in fractions:
        env = Environment(
            capacitor_f=base_env.capacitor_f,
            watchdog_cycles=max(200, int(base_env.swing_cycles * fraction)),
            swing_cycles=base_env.swing_cycles,
        )
        result = run_benchmark(workload, "precise", None, "clank", setup, env)
        rows.append(
            WatchdogSweepRow(
                watchdog_fraction=fraction,
                watchdog_cycles=env.watchdog_cycles,
                median_wall_ms=result.median_wall_ms,
                outages=result.runs[0].outages,
            )
        )
    return WatchdogSweepResult(benchmark, rows)


# ---------------------------------------------------------------------------
# Runtime comparison: Clank vs Hibernus vs NVP.
# ---------------------------------------------------------------------------


@dataclass
class RuntimeComparisonResult:
    benchmark: str
    #: runtime -> (baseline wall, wn8 speedup)
    rows: Dict[str, Tuple[float, float]]

    def as_text(self) -> str:
        return format_table(
            ["Runtime", "Precise wall (ms)", "WN 8-bit speedup"],
            [
                (name, f"{wall:.0f}", f"{speedup:.2f}x")
                for name, (wall, speedup) in self.rows.items()
            ],
            title=f"Ablation: forward-progress runtimes ({self.benchmark})",
        )


def run_runtime_comparison(
    setup: Optional[ExperimentSetup] = None,
    benchmark: str = "MatAdd",
) -> RuntimeComparisonResult:
    setup = setup or ExperimentSetup(trace_count=3, invocations=1)
    workload = worker_workload(benchmark, setup.scale)
    rows: Dict[str, Tuple[float, float]] = {}
    for runtime in ("clank", "hibernus", "nvp"):
        baseline = run_benchmark(workload, "precise", None, runtime, setup)
        wn8 = run_benchmark(workload, workload.technique, 8, runtime, setup)
        rows[runtime] = (baseline.median_wall_ms, median_speedup(baseline, wn8))
    return RuntimeComparisonResult(benchmark, rows)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_memo_sweep().as_text())
    print()
    print(run_capacitor_sweep().as_text())
    print()
    print(run_watchdog_sweep().as_text())
    print()
    print(run_runtime_comparison().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
