"""Figure 16: Conv2d's earliest available outputs with small subwords.

Renders the filtered image as produced at the *first skim point* of
1-, 2- and 3-bit subword pipelining (plus 4-bit for reference) —
the paper's visual argument that even a 1-bit most-significant pass
yields a complete, recognizable output where a truncated baseline run
yields half an image (Figure 2b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.quality import nrmse
from ..workloads import make_workload
from .common import ExperimentSetup, build_anytime
from .report import ascii_image

WIDTHS = (1, 2, 3, 4)


@dataclass
class Fig16Result:
    width: int
    reference: List[float]
    outputs: Dict[int, List[float]]  # bits -> earliest output
    errors: Dict[int, float]

    def as_text(self) -> str:
        parts = ["Figure 16: Conv2d earliest outputs with small subwords"]
        for bits in sorted(self.outputs):
            parts.append("")
            parts.append(f"({bits}-bit subwords, NRMSE {self.errors[bits]:.2f}%):")
            parts.append(ascii_image(self.outputs[bits], self.width))
        parts.append("")
        parts.append("(precise reference):")
        parts.append(ascii_image(self.reference, self.width))
        return "\n".join(parts)


def run(setup: Optional[ExperimentSetup] = None,
        widths: Tuple[int, ...] = WIDTHS) -> Fig16Result:
    setup = setup or ExperimentSetup()
    workload = make_workload("Conv2d", setup.scale)
    reference = workload.decoded_reference()
    width = workload.params["out_side"]

    outputs: Dict[int, List[float]] = {}
    errors: Dict[int, float] = {}
    for bits in widths:
        kernel = build_anytime(workload, "swp", bits)
        cpu = kernel.make_cpu(workload.inputs)

        def cut_power(target: int, cpu=cpu) -> None:
            cpu.halted = True

        cpu.skim_hook = cut_power
        with cpu:
            cpu.run()
        decoded = workload.decode(kernel.read_outputs(cpu))
        outputs[bits] = decoded
        errors[bits] = nrmse(reference, decoded)
    return Fig16Result(width=width, reference=reference, outputs=outputs, errors=errors)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().as_text())


if __name__ == "__main__":  # pragma: no cover
    main()
