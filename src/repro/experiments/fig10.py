"""Figure 10: speedup and quality on the checkpoint-based volatile
processor (Clank).

For each benchmark, the precise baseline and the 8-/4-bit anytime
builds run under the same harvested-power traces (9 traces x 3
invocations, as in the paper); the WN builds accept their approximate
output via a skim point at the first outage after one is armed. Speedup
is the median ratio of wall-clock time to finish one input; quality is
the median NRMSE of the accepted outputs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..workloads import BENCHMARKS, NN_BENCHMARKS
from .common import (
    BenchmarkResult,
    ExperimentSetup,
    median_speedup,
    run_benchmark_suite,
    worker_workload,
)
from .report import format_table


@dataclass
class SpeedupRow:
    benchmark: str
    speedup_8bit: float
    error_8bit: float
    speedup_4bit: float
    error_4bit: float
    #: Median top-1 accuracy per build for NN workloads; None elsewhere.
    accuracy_8bit: Optional[float] = None
    accuracy_4bit: Optional[float] = None


@dataclass
class SpeedupResult:
    runtime: str
    rows: List[SpeedupRow]
    raw: Dict[Tuple[str, str], BenchmarkResult] = field(default_factory=dict)

    @property
    def average_speedup_8bit(self) -> float:
        return statistics.mean(r.speedup_8bit for r in self.rows)

    @property
    def average_speedup_4bit(self) -> float:
        return statistics.mean(r.speedup_4bit for r in self.rows)

    @property
    def average_error_8bit(self) -> float:
        return statistics.mean(r.error_8bit for r in self.rows)

    @property
    def average_error_4bit(self) -> float:
        return statistics.mean(r.error_4bit for r in self.rows)

    @property
    def has_accuracy(self) -> bool:
        """True when any row carries top-1 accuracy (NN workloads)."""
        return any(r.accuracy_8bit is not None for r in self.rows)

    def as_text(self, title: str) -> str:
        def acc(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.3f}"

        if self.has_accuracy:
            rows = [
                (r.benchmark, f"{r.speedup_8bit:.2f}x", f"{r.error_8bit:.2f}",
                 acc(r.accuracy_8bit), f"{r.speedup_4bit:.2f}x",
                 f"{r.error_4bit:.2f}", acc(r.accuracy_4bit))
                for r in self.rows
            ]
            return format_table(
                ["Benchmark", "8-bit speedup", "8-bit NRMSE %", "8-bit top-1",
                 "4-bit speedup", "4-bit NRMSE %", "4-bit top-1"],
                rows,
                title=title,
            )
        rows = [
            (r.benchmark, f"{r.speedup_8bit:.2f}x", f"{r.error_8bit:.2f}",
             f"{r.speedup_4bit:.2f}x", f"{r.error_4bit:.2f}")
            for r in self.rows
        ]
        rows.append(
            ("Average", f"{self.average_speedup_8bit:.2f}x",
             f"{self.average_error_8bit:.2f}",
             f"{self.average_speedup_4bit:.2f}x",
             f"{self.average_error_4bit:.2f}")
        )
        return format_table(
            ["Benchmark", "8-bit speedup", "8-bit NRMSE %",
             "4-bit speedup", "4-bit NRMSE %"],
            rows,
            title=title,
        )


def run_speedup_experiment(
    runtime: str,
    setup: Optional[ExperimentSetup] = None,
    benchmarks: Tuple[str, ...] = BENCHMARKS,
) -> SpeedupResult:
    """Shared engine for Figures 10 (clank) and 11 (nvp)."""
    setup = setup or ExperimentSetup()
    result = SpeedupResult(runtime=runtime, rows=[])
    for name in benchmarks:
        workload = worker_workload(name, setup.scale)
        baseline, wn8, wn4 = run_benchmark_suite(
            workload,
            [("precise", None), (workload.technique, 8), (workload.technique, 4)],
            runtime, setup,
        )
        result.raw[(name, "precise")] = baseline
        result.raw[(name, "8bit")] = wn8
        result.raw[(name, "4bit")] = wn4
        result.rows.append(
            SpeedupRow(
                benchmark=name,
                speedup_8bit=median_speedup(baseline, wn8),
                error_8bit=wn8.median_error,
                speedup_4bit=median_speedup(baseline, wn4),
                error_4bit=wn4.median_error,
                accuracy_8bit=wn8.median_accuracy,
                accuracy_4bit=wn4.median_accuracy,
            )
        )
    return result


def run(setup: Optional[ExperimentSetup] = None, **kwargs) -> SpeedupResult:
    return run_speedup_experiment("clank", setup, **kwargs)


def run_nn(setup: Optional[ExperimentSetup] = None) -> SpeedupResult:
    """The NN inference family under the progress-embedding runtime:
    the Figure 10 protocol over FC/Pool/MLP/CNN, with top-1 accuracy
    reported next to NRMSE for each anytime build."""
    return run_speedup_experiment("progress", setup, benchmarks=NN_BENCHMARKS)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text("Figure 10: speedup and quality on the volatile (Clank) processor"))


if __name__ == "__main__":  # pragma: no cover
    main()
