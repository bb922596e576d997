"""Seeded chaos campaigns: generate scenarios, run them, report.

A campaign is a pure function of its seed: scenario parameters, fuzzed
traces and injected faults all derive from one ``random.Random(seed)``,
and the report contains no timestamps or environment-dependent fields,
so the same seed produces a byte-identical JSON report on every run
(asserted in ``tests/test_chaos_campaign.py``). Scenarios run the
tiny-scale workloads and kernels of the harness's per-process caches
(:func:`~repro.experiments.common.worker_build`), so a campaign shares
each (workload, mode) build with every grid of the process instead of
compiling its own.

Outcome classes:

* ``completed`` / ``completed-skim`` — ran to halt (precisely, or via
  an armed skim point) and passed every applicable oracle check.
* ``stall`` — a typed :class:`~repro.errors.ProgressStall` (livelock,
  idle supply, dead trace): the environment was hopeless and the
  machinery said so gracefully. Not a violation.
* ``violation`` — a crash-consistency invariant broke. Zero of these
  on shipped runtimes, at least one per mutant, is the acceptance bar.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.anytime import AnytimeKernel
from ..errors import ConsistencyViolation, ProgressStall, ReproError
from ..experiments.common import worker_build, worker_workload
from ..observability.tracer import TRACER
from ..power.capacitor import Capacitor
from ..runtime.executor import IntermittentExecutor
from ..runtime.table import RUNTIME_NAMES, RuntimeRow, runtime_row
from ..sim.cpu import CpuFault
from .fuzz import burst_outage_trace, knife_edge_trace
from .injectors import ChaosController, ChaosSupply
from .mutants import MUTANTS
from .oracle import GoldenBundle, check_outputs, compute_golden
from .plan import (
    BitFlip,
    FaultPlan,
    OutageAtCheckpoint,
    OutageAtCycle,
    OutageAtRestore,
    OutageAtSkimArm,
)

#: Default campaign axes: every runtime of the table, in table order.
DEFAULT_RUNTIMES = RUNTIME_NAMES
DEFAULT_WORKLOADS = ("Home", "MatMul")
#: Simulated wall-clock budget per scenario; livelocks convert to typed
#: stalls long before this, so hitting it is a forward-progress bug.
SCENARIO_MAX_WALL_MS = 2_000_000


@dataclass(frozen=True)
class Scenario:
    """One seeded chaos experiment."""

    index: int
    runtime: str
    workload: str
    mode: str  # "precise" | "anytime" (the workload's own technique)
    trace_kind: str  # "burst" | "knife"
    trace_seed: int
    plan: FaultPlan

    def trace(self):
        """Materialize the fuzzed power trace."""
        if self.trace_kind == "knife":
            return knife_edge_trace(self.trace_seed)
        return burst_outage_trace(self.trace_seed)

    def describe(self) -> dict:
        """JSON-friendly header for the campaign report."""
        return {
            "index": self.index,
            "runtime": self.runtime,
            "workload": self.workload,
            "mode": self.mode,
            "trace": f"{self.trace_kind}-{self.trace_seed}",
            "events": self.plan.describe(),
        }


def generate_scenarios(
    seed: int,
    count: int,
    runtimes: Sequence[str] = DEFAULT_RUNTIMES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> List[Scenario]:
    """``count`` scenarios covering every runtime x workload x mode
    combination round-robin, with seeded fault plans and traces."""
    rng = random.Random(seed)
    scenarios: List[Scenario] = []
    for index in range(count):
        runtime = runtimes[index % len(runtimes)]
        workload = workloads[(index // len(runtimes)) % len(workloads)]
        mode = "precise" if (index // (len(runtimes) * len(workloads))) % 2 == 0 else "anytime"
        trace_kind = "burst" if rng.random() < 0.6 else "knife"
        trace_seed = rng.randrange(1 << 30)
        scenarios.append(
            Scenario(
                index=index,
                runtime=runtime,
                workload=workload,
                mode=mode,
                trace_kind=trace_kind,
                trace_seed=trace_seed,
                plan=_random_plan(rng),
            )
        )
    return scenarios


def _random_plan(rng: random.Random) -> FaultPlan:
    """Draw one fault plan. Events whose trigger never occurs in a
    given scenario (e.g. a checkpoint ordinal past the last commit)
    are harmless no-ops, so parameters are drawn freely."""
    cycle_outages = [
        OutageAtCycle(at_cycle=rng.randrange(20, 15_000))
        for _ in range(rng.randint(1, 3))
    ]
    checkpoint_outages = []
    if rng.random() < 0.5:
        checkpoint_outages.append(
            OutageAtCheckpoint(
                ordinal=rng.randint(1, 6), torn=rng.random() < 0.5
            )
        )
    restore_outages = []
    if rng.random() < 0.4:
        restore_outages.append(OutageAtRestore(ordinal=rng.randint(1, 4)))
    skim_arm_outages = []
    if rng.random() < 0.4:
        skim_arm_outages.append(OutageAtSkimArm(ordinal=rng.randint(1, 3)))
    bit_flips = []
    if rng.random() < 0.35:
        bit_flips.append(
            BitFlip(
                at_outage=rng.randint(1, 4),
                target="scratch" if rng.random() < 0.7 else "data",
                offset=rng.randrange(4096),
                bit=rng.randrange(8),
            )
        )
    return FaultPlan(
        cycle_outages=cycle_outages,
        checkpoint_outages=checkpoint_outages,
        restore_outages=restore_outages,
        skim_arm_outages=skim_arm_outages,
        bit_flips=bit_flips,
    )


class _Caches:
    """Per-campaign golden bundles, one per (workload, mode). Workloads
    and kernels come from the harness's per-process caches, which every
    campaign (and every grid) in the process shares."""

    def __init__(self):
        self.goldens: Dict[Tuple[str, str], GoldenBundle] = {}

    def resolve(self, workload_name: str, mode: str):
        """(workload, kernel, golden) for one scenario."""
        workload = worker_workload(workload_name, "tiny")
        actual_mode = "precise" if mode == "precise" else workload.technique
        kernel = worker_build(workload, actual_mode).kernel
        key = (workload_name, actual_mode)
        if key not in self.goldens:
            self.goldens[key] = compute_golden(kernel, workload.inputs)
        return workload, kernel, self.goldens[key]


def _build_runtime(row: RuntimeRow, mutant: Optional[str], kernel: AnytimeKernel):
    """The runtime instance for one scenario (the row's live runtime with
    its default watchdog), honouring a mutant swap."""
    if mutant is not None:
        target, mutant_cls = MUTANTS[mutant]
        if row.name == target:
            return mutant_cls()
    return row.live(kernel, None, None)


def run_scenario(
    scenario: Scenario,
    mutant: Optional[str] = None,
    caches: Optional[_Caches] = None,
) -> dict:
    """Execute one scenario and classify the outcome."""
    caches = caches or _Caches()
    workload, kernel, golden = caches.resolve(scenario.workload, scenario.mode)
    cpu = kernel.make_cpu(workload.inputs)
    row = runtime_row(scenario.runtime)
    runtime = _build_runtime(row, mutant, kernel)
    supply = ChaosSupply(
        scenario.trace(),
        Capacitor(v_initial=3.0),
        row.energy_model(),
        # A just-in-time runtime (the executor's on_low_voltage test)
        # hears the low-voltage warning before a forced outage trips.
        defer_trips=getattr(runtime, "on_low_voltage", None) is not None,
    )
    executor = IntermittentExecutor(cpu, supply, runtime)
    controller = ChaosController(
        scenario.plan, cpu, supply, runtime, kernel
    ).wire()

    row = scenario.describe()
    result = None
    try:
        result = executor.run(max_wall_ms=SCENARIO_MAX_WALL_MS)
    except ConsistencyViolation as exc:
        _classify_violation(row, exc.invariant, str(exc))
    except ProgressStall as exc:
        row["outcome"] = "stall"
        row["detail"] = type(exc).__name__
    except CpuFault as exc:
        _classify_violation(row, "legal-execution", f"CpuFault: {exc}")
    except ReproError as exc:
        _classify_violation(row, "protocol", f"{type(exc).__name__}: {exc}")
    else:
        if result.timed_out:
            _classify_violation(
                row, "forward-progress",
                f"no completion within {SCENARIO_MAX_WALL_MS} ms",
            )
        else:
            outputs = kernel.read_outputs(cpu)
            try:
                if controller.output_checks:
                    check_outputs(
                        outputs, golden, result.skim_taken,
                        controller.consumed_levels,
                    )
                row["outcome"] = (
                    "completed-skim" if result.skim_taken else "completed"
                )
            except ConsistencyViolation as exc:
                _classify_violation(row, exc.invariant, str(exc))
    row["output_checked"] = controller.output_checks
    row["injected"] = {
        "forced_outages": controller.forced_outages,
        "bit_flips": controller.flips_applied,
        "torn_commits": controller.torn_commits,
    }
    if result is not None:
        row["outages"] = result.outages
    return row


def _classify_violation(row: dict, invariant: str, detail: str) -> None:
    """Mark one scenario row as a violation (and trace it)."""
    row["outcome"] = "violation"
    row["invariant"] = invariant
    row["detail"] = detail
    if TRACER.enabled:
        TRACER.emit(
            "violation", scenario=row["index"], invariant=invariant,
            runtime=row["runtime"], workload=row["workload"],
        )


def run_campaign(
    seed: int,
    count: int,
    runtimes: Sequence[str] = DEFAULT_RUNTIMES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    mutant: Optional[str] = None,
) -> dict:
    """Run a seeded campaign and return the (deterministic) report."""
    scenarios = generate_scenarios(seed, count, runtimes, workloads)
    caches = _Caches()
    rows = [run_scenario(s, mutant=mutant, caches=caches) for s in scenarios]
    outcomes: Dict[str, int] = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    violations = [row for row in rows if row["outcome"] == "violation"]
    return {
        "seed": seed,
        "scenario_count": count,
        "runtimes": list(runtimes),
        "workloads": list(workloads),
        "mutant": mutant,
        "outcomes": dict(sorted(outcomes.items())),
        "violation_count": len(violations),
        "violations": violations,
        "scenarios": rows,
    }


def report_to_json(report: dict) -> str:
    """Canonical JSON encoding: sorted keys, stable indentation, no
    timestamps — byte-identical for identical seeds."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
