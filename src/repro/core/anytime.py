"""The What's Next anytime-kernel API.

This is the library's main entry point: it takes a kernel written
against the plain IR (with ``asp`` / ``asv`` pragmas on approximable
arrays, exactly like the paper's Listings 1 and 3), applies the
requested anytime transformation, compiles it, and offers three ways to
run it:

* :meth:`AnytimeKernel.run` — continuous power, returns outputs + cycles;
* :meth:`AnytimeKernel.quality_curve` — the runtime-quality trade-off
  (paper Figure 9): NRMSE of the output if execution stopped at each
  sampled moment, runtime normalized to the precise baseline;
* :meth:`AnytimeKernel.run_intermittent` — execution under a harvested
  power trace with a Clank or NVP runtime and skim-point semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..compiler.codegen import CompiledKernel, compile_kernel
from ..compiler.ir import Kernel, evaluate
from ..compiler.passes.swp import apply_swp
from ..compiler.passes.swv import apply_swv
from ..observability.profiler import PROFILER
from ..observability.tracer import TRACER
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..power.supply import PowerSupply
from ..power.trace import PowerTrace
from ..runtime.executor import IntermittentExecutor, RunResult
from ..runtime.table import runtime_row
from ..sim.cpu import CPU
from ..sim.multiplier import MemoTable, Multiplier
from .quality import QualityCurve, nrmse

#: Valid anytime modes.
MODES = ("precise", "swp", "swv")


@dataclass
class AnytimeConfig:
    """How to build and run a kernel."""

    mode: str = "precise"
    bits: Optional[int] = None  # None: take the pragma's subword width
    memoization: bool = False
    memo_entries: int = 16
    zero_skipping: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class KernelRun:
    """Outcome of one continuous run."""

    outputs: Dict[str, List[int]]
    cycles: int
    instructions: int
    wn_fraction: float


@dataclass
class IntermittentRun:
    """Outcome of one intermittent run."""

    outputs: Dict[str, List[int]]
    result: RunResult


class AnytimeKernel:
    """A kernel compiled under a What's Next configuration."""

    def __init__(self, kernel: Kernel, config: Optional[AnytimeConfig] = None):
        self.base_kernel = kernel
        self.config = config or AnytimeConfig()
        if self.config.mode == "swp":
            self.kernel = apply_swp(kernel, bits=self.config.bits)
        elif self.config.mode == "swv":
            self.kernel = apply_swv(kernel, bits=self.config.bits)
        else:
            self.kernel = kernel
        self.compiled: CompiledKernel = compile_kernel(self.kernel)

    # -- construction helpers -----------------------------------------------

    def _multiplier(self) -> Multiplier:
        table = MemoTable(self.config.memo_entries) if self.config.memoization else None
        return Multiplier(memo_table=table, zero_skipping=self.config.zero_skipping)

    def make_cpu(self, inputs: Dict[str, Sequence[int]], cpu_cls: type = CPU) -> CPU:
        return self.compiled.make_cpu(
            inputs, multiplier=self._multiplier(), cpu_cls=cpu_cls
        )

    def reference_outputs(self, inputs: Dict[str, Sequence[int]]) -> Dict[str, List[int]]:
        """Precise outputs from the IR interpreter (ground truth)."""
        result = evaluate(self.base_kernel, inputs)
        return {a.name: result[a.name] for a in self.base_kernel.outputs()}

    def read_outputs(self, cpu: CPU) -> Dict[str, List[int]]:
        return {
            a.name: self.compiled.read_array(cpu.memory, a.name)
            for a in self.kernel.outputs()
        }

    @property
    def code_size_bytes(self) -> int:
        return self.compiled.code_size_bytes

    # -- execution -------------------------------------------------------------

    def run(self, inputs: Dict[str, Sequence[int]]) -> KernelRun:
        """Run to completion under continuous power."""
        with self.make_cpu(inputs) as cpu:
            cycles = cpu.run()
            return KernelRun(
                outputs=self.read_outputs(cpu),
                cycles=cycles,
                instructions=cpu.stats.instructions,
                wn_fraction=cpu.stats.wn_fraction,
            )

    def quality_curve(
        self,
        inputs: Dict[str, Sequence[int]],
        baseline_cycles: Optional[int] = None,
        samples: int = 50,
        decode: Optional[Callable[[Dict[str, List[int]]], Sequence[float]]] = None,
    ) -> QualityCurve:
        """Runtime-quality trade-off curve (paper Figure 9).

        Steps the kernel in cycle windows; at each step the outputs are
        decoded and compared (NRMSE) against the precise reference. The
        runtime axis is normalized to ``baseline_cycles`` (the precise
        build's runtime; measured automatically when omitted).
        """
        reference = self.reference_outputs(inputs)
        decode = decode or _flatten
        ref_values = decode(reference)

        if baseline_cycles is None:
            baseline_cycles = AnytimeKernel(self.base_kernel).run(inputs).cycles

        # Measure this build's total runtime first to size the windows.
        total_cycles = self.run(inputs).cycles
        window = max(1, total_cycles // samples)

        curve = QualityCurve(label=self.kernel.name)
        elapsed = 0
        with self.make_cpu(inputs) as cpu:
            while not cpu.halted:
                elapsed += cpu.run_cycles(window)
                error = nrmse(ref_values, decode(self.read_outputs(cpu)))
                curve.add(elapsed / baseline_cycles, error)
        return curve

    def run_intermittent(
        self,
        inputs: Dict[str, Sequence[int]],
        trace: PowerTrace,
        runtime: str = "clank",
        capacitor: Optional[Capacitor] = None,
        energy_model: Optional[EnergyModel] = None,
        start_tick: int = 0,
        max_wall_ms: int = 10_000_000,
        watchdog_cycles: Optional[int] = None,
        cpu_cls: type = CPU,
    ) -> IntermittentRun:
        """Run under a harvested-power trace until complete (or skimmed).

        ``runtime`` names a row of :mod:`repro.runtime.table`."""
        row = runtime_row(runtime)
        # Released on every exit, the raising ones included, once the
        # outputs and the profile are read (CPU.release).
        with self.make_cpu(inputs, cpu_cls=cpu_cls) as cpu:
            supply = PowerSupply(
                trace,
                capacitor or Capacitor(),
                energy_model or EnergyModel(),
                start_tick=start_tick,
            )
            policy = row.live(self, None, watchdog_cycles)
            executor = IntermittentExecutor(cpu, supply, policy)
            result = executor.run(max_wall_ms=max_wall_ms)
            if PROFILER.enabled:
                # Per-PC retire counters survive the whole run (only a
                # .stats read flushes them); fold them before anything does.
                PROFILER.collect_cpu(
                    cpu, f"{self.compiled.program.name}/{runtime}"
                )
            if TRACER.enabled and self.config.memoization:
                # One aggregate event per sample: the memo table counts its
                # own hits/misses in the multiply path, so the hot loop pays
                # nothing extra for this.
                table = cpu.multiplier.memo
                if table is not None:
                    TRACER.emit(
                        "memo_stats", hits=table.hits, misses=table.misses,
                        hit_rate=round(table.hit_rate, 4),
                    )
            return IntermittentRun(outputs=self.read_outputs(cpu), result=result)


def _flatten(outputs: Dict[str, List[int]]) -> List[float]:
    values: List[float] = []
    for name in sorted(outputs):
        values.extend(float(v) for v in outputs[name])
    return values
