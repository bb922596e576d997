"""Units of the chaos engine: fault plans, the trace fuzzer, the chaos
supply, the consistency oracle, and the restore-path edge cases the
sampled traces never deliberately exercise (outage in the exact
checkpoint-commit tick, outage at cycle 0 after a restore, an all-dead
trace, an empty program).
"""

import pytest

from repro.errors import ConsistencyViolation, ProgressStall
from repro.fault.campaign import Scenario, _Caches, run_scenario
from repro.fault.fuzz import burst_outage_trace, fuzzed_traces, knife_edge_trace
from repro.fault.oracle import check_outputs, compute_golden
from repro.fault.plan import (
    BitFlip,
    FaultPlan,
    OutageAtCheckpoint,
    OutageAtCycle,
    OutageAtRestore,
    OutageAtSkimArm,
)
from repro.isa import assemble
from repro.power import Capacitor, EnergyModel
from repro.power.supply import SupplyExhausted
from repro.power.trace import PowerTrace
from repro.runtime import ClankRuntime, IntermittentExecutor
from repro.sim import CPU, default_memory


def scenario_with(plan, runtime="clank", workload="Home", mode="precise",
                  trace_kind="burst", trace_seed=11, index=0):
    """A hand-built scenario around one specific fault plan."""
    return Scenario(
        index=index, runtime=runtime, workload=workload, mode=mode,
        trace_kind=trace_kind, trace_seed=trace_seed, plan=plan,
    )


class TestFaultPlan:
    def test_at_most_one_torn_commit(self):
        with pytest.raises(ValueError):
            FaultPlan(checkpoint_outages=[
                OutageAtCheckpoint(ordinal=1, torn=True),
                OutageAtCheckpoint(ordinal=2, torn=True),
            ])

    def test_describe_covers_every_event(self):
        plan = FaultPlan(
            cycle_outages=[OutageAtCycle(at_cycle=100)],
            checkpoint_outages=[OutageAtCheckpoint(ordinal=2, torn=True)],
            restore_outages=[OutageAtRestore(ordinal=1)],
            skim_arm_outages=[OutageAtSkimArm(ordinal=1)],
            bit_flips=[BitFlip(at_outage=1, target="scratch", offset=3, bit=5)],
        )
        kinds = [entry["kind"] for entry in plan.describe()]
        assert kinds == [
            "outage-at-cycle", "outage-at-checkpoint", "outage-at-restore",
            "outage-at-skim-arm", "bit-flip",
        ]

    def test_indexed_views(self):
        plan = FaultPlan(
            checkpoint_outages=[OutageAtCheckpoint(ordinal=3)],
            bit_flips=[BitFlip(at_outage=2), BitFlip(at_outage=2, bit=4)],
        )
        assert set(plan.checkpoint_events()) == {3}
        assert len(plan.flips_by_outage()[2]) == 2
        assert plan.cycle_targets() == []


class TestFuzzedTraces:
    def test_deterministic_per_seed(self):
        a = burst_outage_trace(7)
        b = burst_outage_trace(7)
        assert a.samples == b.samples
        assert knife_edge_trace(7).samples == knife_edge_trace(7).samples

    def test_seeds_differ(self):
        assert burst_outage_trace(1).samples != burst_outage_trace(2).samples

    def test_duration_honoured(self):
        assert len(burst_outage_trace(3, duration_ms=500)) == 500
        assert len(knife_edge_trace(3, duration_ms=250)) == 250

    def test_fuzzed_traces_mix_both_kinds(self):
        traces = fuzzed_traces(5, count=6)
        assert len(traces) == 6
        names = {trace.name.split("-")[0] for trace in traces}
        assert names == {"burst", "knife"}


class TestOracle:
    def test_golden_matches_continuous_run(self, tiny_home):
        workload, kernel, golden = tiny_home
        outputs = kernel.run(workload.inputs).outputs
        check_outputs(outputs, golden, skim_taken=False, consumed_levels=[])

    def test_detects_corruption(self, tiny_home):
        workload, kernel, golden = tiny_home
        outputs = {k: list(v) for k, v in kernel.run(workload.inputs).outputs.items()}
        name = sorted(outputs)[0]
        outputs[name][0] ^= 1
        with pytest.raises(ConsistencyViolation) as exc:
            check_outputs(outputs, golden, skim_taken=False, consumed_levels=[])
        assert exc.value.invariant == "output-golden"

    def test_skim_accepts_any_reachable_state(self, tiny_home):
        _workload, _kernel, golden = tiny_home
        # Any recorded post-arm output state is a legal skim result.
        post_arm = [s for level, s in golden.output_states if level >= 1]
        assert post_arm, "golden run must arm at least one skim point"
        check_outputs(
            {k: list(v) for k, v in post_arm[0].items()},
            golden, skim_taken=True, consumed_levels=[1],
        )

    def test_skim_rejects_unreachable_state(self, tiny_home):
        _workload, _kernel, golden = tiny_home
        bogus = {k: [v ^ 0x5A5A for v in vals] for k, vals in golden.outputs.items()}
        with pytest.raises(ConsistencyViolation) as exc:
            check_outputs(bogus, golden, skim_taken=True, consumed_levels=[1])
        assert exc.value.invariant == "output-bounds"

    @pytest.fixture(scope="class")
    def tiny_home(self):
        caches = _Caches()
        workload, kernel, golden = caches.resolve("Home", "anytime")
        return workload, kernel, golden


class TestHarnessBuilds:
    def test_scenario_compiles_nothing_the_harness_built(self, monkeypatch):
        """The campaign runs the kernel the harness has cached for its
        (workload, mode) instead of compiling its own."""
        from repro.core import anytime
        from repro.experiments import common
        from repro.experiments.common import measure_precise_cycles
        from repro.workloads import make_workload

        measure_precise_cycles(make_workload("Home", "tiny"))
        cached = common._worker_cache.get(("Home", "tiny", "precise", None))
        compiled = []
        compile_kernel = anytime.compile_kernel
        monkeypatch.setattr(
            anytime, "compile_kernel",
            lambda kernel: compiled.append(kernel) or compile_kernel(kernel),
        )
        caches = _Caches()
        row = run_scenario(scenario_with(FaultPlan()), caches=caches)
        assert row["outcome"] == "completed", row
        assert compiled == []
        assert caches.resolve("Home", "precise")[1] is cached.kernel


class TestRestoreEdgeCases:
    """The nasty corners the satellite checklist names explicitly."""

    def test_outage_in_exact_checkpoint_commit_tick(self):
        for ordinal in (1, 2, 3):
            plan = FaultPlan(
                checkpoint_outages=[OutageAtCheckpoint(ordinal=ordinal)]
            )
            row = run_scenario(scenario_with(plan))
            assert row["outcome"] == "completed", row

    def test_torn_commit_is_survived_by_shipped_clank(self):
        plan = FaultPlan(
            checkpoint_outages=[OutageAtCheckpoint(ordinal=1, torn=True)]
        )
        row = run_scenario(scenario_with(plan))
        assert row["outcome"] == "completed", row
        assert row["injected"]["torn_commits"] == 1

    def test_outage_at_cycle_zero_of_restore(self):
        # Power fails again in the very tick the restore runs in, for
        # several consecutive restores: each reboot must still land on a
        # committed checkpoint and a legal PC, and the run completes.
        plan = FaultPlan(restore_outages=[OutageAtRestore(ordinal=1)])
        row = run_scenario(scenario_with(plan))
        assert row["outcome"] == "completed", row

    def test_outage_between_skim_arm_and_nvm_store(self):
        plan = FaultPlan(skim_arm_outages=[OutageAtSkimArm(ordinal=1)])
        row = run_scenario(scenario_with(plan, mode="anytime"))
        assert row["outcome"] in ("completed", "completed-skim"), row

    def test_all_dead_trace_is_a_typed_stall(self):
        cpu = CPU(assemble("    HALT\n"), default_memory())
        from repro.fault.injectors import ChaosSupply

        supply = ChaosSupply(
            PowerTrace([0.0] * 50, name="dead"),
            Capacitor(v_initial=0.0),
            EnergyModel(),
        )
        executor = IntermittentExecutor(cpu, supply, ClankRuntime())
        with pytest.raises(SupplyExhausted):
            executor.run(max_wall_ms=10_000)
        # ... and SupplyExhausted is a ProgressStall, so the campaign
        # files it under "stall", not "violation".
        assert issubclass(SupplyExhausted, ProgressStall)

    def test_empty_program_completes(self):
        cpu = CPU(assemble("    HALT\n"), default_memory())
        from repro.fault.injectors import ChaosSupply

        supply = ChaosSupply(
            burst_outage_trace(3), Capacitor(v_initial=3.0), EnergyModel()
        )
        supply.schedule_cycle_outages([1])
        executor = IntermittentExecutor(cpu, supply, ClankRuntime())
        result = executor.run(max_wall_ms=100_000)
        assert result.completed
        assert cpu.halted

    def test_scratch_flip_is_invisible(self):
        plan = FaultPlan(
            cycle_outages=[OutageAtCycle(at_cycle=500)],
            bit_flips=[BitFlip(at_outage=1, target="scratch", offset=9, bit=3)],
        )
        row = run_scenario(scenario_with(plan))
        assert row["outcome"] == "completed", row
        assert row["output_checked"] is True
        assert row["injected"]["bit_flips"] == 1

    def test_data_flip_waives_output_checks_only(self):
        plan = FaultPlan(
            cycle_outages=[OutageAtCycle(at_cycle=500)],
            bit_flips=[BitFlip(at_outage=1, target="data", offset=5, bit=2)],
        )
        row = run_scenario(scenario_with(plan))
        # Mechanical invariants still hold; output equality is waived.
        assert row["outcome"] in ("completed", "completed-skim"), row
        assert row["output_checked"] is False
