"""Figure 2: Conv2d output under a truncated energy budget.

Three renderings of the Gaussian-filtered image:

(a) the precise baseline run to completion (100% runtime);
(b) the precise baseline halted partway through its runtime — the
    image is *incomplete* (the bottom rows were never computed);
(c) the anytime (SWP) build halted after the same number of cycles —
    the image is *complete* at reduced precision. The default subword
    width is 2 bits: in our code generator, per-tap load/loop overhead
    puts the earliest complete first pass at ~0.59x of the baseline, so
    the narrowest subwords are the ones whose first pass fits a ~60%
    budget (the paper's Figure 16 makes the same visual argument with
    1- to 3-bit subwords).

The quantitative claim: at the same truncated budget, the anytime
output's NRMSE is far below the truncated baseline's, because a missing
chunk of image is much worse than a uniformly approximate one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.quality import nrmse
from ..workloads import make_workload
from .common import ExperimentSetup, build_anytime
from .report import ascii_image


@dataclass
class Fig2Result:
    width: int
    reference: List[float]  # (a) precise, 100% runtime
    truncated_baseline: List[float]  # (b) precise, 50% runtime
    anytime: List[float]  # (c) WN 8-bit SWP, 50% runtime
    budget_cycles: int
    baseline_cycles: int
    truncated_error: float
    anytime_error: float

    def as_text(self) -> str:
        parts = [
            "Figure 2: Conv2d output (baseline vs subword pipelining)",
            f"budget: {self.budget_cycles} cycles "
            f"({100 * self.budget_cycles / self.baseline_cycles:.0f}% of the "
            f"{self.baseline_cycles}-cycle precise runtime)",
            f"(b) truncated baseline NRMSE: {self.truncated_error:.2f}%",
            f"(c) WN SWP NRMSE:            {self.anytime_error:.4f}%",
            "",
            "(a) baseline (100% runtime):",
            ascii_image(self.reference, self.width),
            "",
            "(b) baseline (truncated) - incomplete:",
            ascii_image(self.truncated_baseline, self.width),
            "",
            "(c) WN (same budget) - complete, approximate:",
            ascii_image(self.anytime, self.width),
        ]
        return "\n".join(parts)


def run(setup: Optional[ExperimentSetup] = None, budget_fraction: float = 0.62,
        bits: int = 2) -> Fig2Result:
    setup = setup or ExperimentSetup()
    workload = make_workload("Conv2d", setup.scale)
    width = workload.params["out_side"]

    precise = build_anytime(workload, "precise")
    full_run = precise.run(workload.inputs)
    reference = workload.decode(full_run.outputs)
    budget = int(full_run.cycles * budget_fraction)

    # (b) precise build, power cut at the budget.
    with precise.make_cpu(workload.inputs) as cpu_b:
        cpu_b.run_cycles(budget)
        truncated = workload.decode(precise.read_outputs(cpu_b))

    # (c) anytime build, same budget.
    anytime = build_anytime(workload, "swp", bits)
    with anytime.make_cpu(workload.inputs) as cpu_c:
        cpu_c.run_cycles(budget)
        approx = workload.decode(anytime.read_outputs(cpu_c))

    return Fig2Result(
        width=width,
        reference=reference,
        truncated_baseline=truncated,
        anytime=approx,
        budget_cycles=budget,
        baseline_cycles=full_run.cycles,
        truncated_error=nrmse(reference, truncated),
        anytime_error=nrmse(reference, approx),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
