"""The replay engine: one configuration's samples walked over its commit log.

Every intermittent sample of one (workload, mode, bits) configuration
consumes the same recorded instruction stream
(:class:`~repro.sim.replay.ReplayRecord`); the power trace only decides
where outages cut it. :func:`run_batch_group` runs a configuration's
samples as **lanes** over that one record. Each lane owns real
:class:`~repro.power.supply.PowerSupply`, replay policy, skim register
and :class:`~repro.observability.ledger.ProgressLedger` objects and
drives the *same* control flow as
:class:`repro.runtime.executor.IntermittentExecutor` — charge, restore,
tick budgeting, pending-overhead carry, watchdog chunking, the Hibernus
snapshot reserve, outage bookkeeping — but executing a chunk is the
lane policy's :meth:`~repro.runtime.base.ReplayPolicy.run_chunk` (a
bisect over cost prefix sums, split at the runtime's own events) and
restoring a checkpoint is rewinding a stream position. Because the
per-tick cycle consumption is reproduced exactly, every lane sees the
identical energy trajectory, ``RunResult`` and outputs as the
interpreter path.

Each runtime's :class:`~repro.runtime.base.ReplayPolicy` is the only
statement of its replay semantics: the walk here never looks inside a
chunk, so a new runtime needs a live runtime, a replay policy and a row
in :mod:`repro.runtime.table`, and nothing else. Lanes share only the
record's memoized answers — WAR horizons (answered in one shot by
:class:`~repro.sim.batch_replay.BatchIndex` when numpy is available),
output-store positions and keyframe images — which are
order-independent, so lanes walk one after another (and then finish
in order), and a one-lane group is exactly per-sample replay. The
off-phase charge loop is fast-forwarded by
:func:`~repro.sim.batch_replay.charge_until_on_fast`.

Those memos, the scalar WAR scans and the materialized CPU are mutable
state on the record, and threads of one process share records (the
service's pool runs jobs of one configuration side by side), so a
group holds the record's lock from its first walk to its last finish:
groups on one record take turns, groups on different records overlap.

Two situations leave the log:

* **Skim handoff** — a restore consumes an armed skim register. The
  post-skim suffix (checkpoint registers + skim-target PC) was never
  recorded, so :func:`finish_replay_run` reconstructs the concrete CPU
  and memory state at the cut from the nearest keyframe and store log,
  and hands the *same* supply, skim register and ledger to a live
  :class:`~repro.runtime.executor.IntermittentExecutor` for the rest.
* **Demotion** — a policy divergence
  (:class:`~repro.sim.replay.ReplayDiverged`, e.g. Hibernus rewinding
  into a non-idempotent segment) or a forward-progress stall or dead
  trace (:class:`~repro.errors.ProgressStall`) drops the lane, reported
  as ``None``; the caller runs that sample on the interpreter, which
  reproduces it (or its typed error) exactly. A non-replayable record
  demotes every lane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.anytime import IntermittentRun
from ..errors import ProgressStall
from ..observability.ledger import ProgressLedger
from ..observability.tracer import TRACER
from ..power.supply import PowerSupply
from ..sim.batch_replay import (
    build_batch_index,
    charge_until_on_fast,
    trace_energy_array,
)
from ..sim.replay import ReplayDiverged, ReplayRecord
from .base import ReplayPolicy
from .checkpoint import Checkpoint
from .executor import (
    IDLE_TICK_LIMIT,
    STALLED_RESTORE_LIMIT,
    IntermittentExecutor,
    RunResult,
    check_sample_deadline,
    sample_deadline_armed,
)
from .skim import SkimRegister
from .table import runtime_row

#: Exceptions that demote one lane to the interpreter.
_DEMOTE = (ReplayDiverged, ProgressStall)

_LIVELOCK_MESSAGE = (
    "forward-progress livelock: 64 consecutive "
    "restores resumed from the same state; no "
    "progress survives the power cycles. Enlarge "
    "the storage capacitor or shorten the "
    "runtime's watchdog/checkpoint period."
)


def _merge_stats(into, other) -> None:
    into.checkpoints += other.checkpoints
    into.checkpoint_cycles += other.checkpoint_cycles
    into.restores += other.restores
    into.restore_cycles += other.restore_cycles
    into.war_violations += other.war_violations
    into.watchdog_checkpoints += other.watchdog_checkpoints
    into.extra.update(other.extra)


def _walk(
    supply: PowerSupply,
    policy: ReplayPolicy,
    skim: SkimRegister,
    ledger: ProgressLedger,
    energies,
    max_wall_ms: int,
    traced: bool,
    timed: bool,
):
    """Consume the log for one lane until halt, timeout or skim cut.

    Mirrors ``IntermittentExecutor.run`` statement for statement; every
    divergence from that loop is a correctness bug (the differential
    suites in ``tests/test_replay_engine.py`` and
    ``tests/test_batch_replay.py`` check the experiment grids). Returns
    ``(skim_cut, timed_out)``, where ``skim_cut`` is ``(cut position,
    skim target, pending restore overhead)`` when a restore consumed an
    armed skim register. ``traced`` and ``timed`` are the group's
    ``TRACER.enabled`` and deadline-armed flags, read once per group.
    """
    start_tick = supply.tick
    pending_overhead = 0
    pending_kind = "restore"
    volatile = policy.volatile_core
    stalled_restores = 0
    idle_ticks = 0
    last_restore_signature = None
    jit_snapshot = getattr(policy, "on_low_voltage", None)
    interval = policy.watchdog_cycles
    fast_charge = energies is not None and len(energies) > 0

    while not policy.halted:
        if supply.tick - start_tick > max_wall_ms:
            return None, True
        if timed:
            check_sample_deadline(supply.tick)

        if not supply.on:
            if fast_charge:
                charge_until_on_fast(supply, energies)
            else:
                supply.charge_until_on()
            armed_before = skim.armed
            pending_overhead = policy.on_restore()
            pending_kind = "restore"
            took_skim = armed_before and not skim.armed
            if traced:
                TRACER.emit(
                    "restore", tick=supply.tick, cost=pending_overhead,
                    runtime=policy.name, skim=took_skim, engine="replay",
                )
            if took_skim:
                return (
                    policy.resume_position, policy.skim_redirect,
                    pending_overhead,
                ), False
            # Forward-progress guard, keyed on the resume position: the
            # stream is deterministic, so equal positions mean the
            # identical architectural state the live executor
            # fingerprints with (pc, registers).
            signature = policy.resume_position
            if signature == last_restore_signature:
                stalled_restores += 1
                if stalled_restores >= STALLED_RESTORE_LIMIT:
                    raise ProgressStall(
                        _LIVELOCK_MESSAGE,
                        position=policy.resume_position,
                        tick=supply.tick, runtime=policy.name,
                    )
            else:
                stalled_restores = 0
                last_restore_signature = signature

        budget = supply.begin_tick()
        used = 0
        if pending_overhead:
            paid = min(pending_overhead, budget)
            pending_overhead -= paid
            used = paid
            ledger.overhead(pending_kind, paid)

        reserved = 0
        if jit_snapshot is not None and supply.tick_energy_limited:
            reserved = min(policy.snapshot_cycles, budget - used)
            budget -= reserved
        while pending_overhead == 0 and not policy.halted and used < budget:
            chunk = budget - used
            if interval:
                chunk = min(chunk, interval)
            # Clank-style policies charge WAR checkpoints inside
            # run_chunk (the twin of the live store hook); the stats
            # delta separates them from program progress.
            ckpt_before = policy.stats.checkpoint_cycles
            ran = policy.run_chunk(chunk)
            ckpt_in_chunk = policy.stats.checkpoint_cycles - ckpt_before
            used += ran
            ledger.execute(ran - ckpt_in_chunk)
            if ckpt_in_chunk:
                ledger.overhead("checkpoint", ckpt_in_chunk)
                ledger.commit()
            overhead = policy.on_tick(ran)
            if overhead:
                paid = min(overhead, budget - used)
                used += paid
                pending_overhead = overhead - paid
                pending_kind = "checkpoint"
                ledger.overhead("checkpoint", paid)
                ledger.commit()
            if ran == 0:
                break
        if reserved and not policy.halted:
            snap = min(jit_snapshot(), reserved)
            used += snap
            if snap:
                ledger.overhead("checkpoint", snap)
                ledger.commit()
        supply.consume_cycles(used)

        if supply.finish_tick():
            if used == 0:
                idle_ticks += 1
                if idle_ticks >= IDLE_TICK_LIMIT:
                    raise ProgressStall(
                        f"forward-progress stall: {IDLE_TICK_LIMIT} "
                        "consecutive powered ticks executed zero "
                        "cycles; the stored energy cannot cover the "
                        "next instruction. Enlarge the storage "
                        "capacitor or weaken the workload.",
                        position=policy.cursor, tick=supply.tick,
                        runtime=policy.name,
                    )
            else:
                idle_ticks = 0
        else:
            idle_ticks = 0
            pending_overhead = 0
            if volatile and not policy.halted:
                ledger.discard()
            else:
                ledger.commit()
            policy.on_outage()
            if traced:
                TRACER.emit(
                    "outage", tick=supply.tick, runtime=policy.name,
                    engine="replay",
                )
    return None, False


def finish_replay_run(
    kernel,
    record: ReplayRecord,
    inputs,
    args: Dict,
    supply: PowerSupply,
    policy: ReplayPolicy,
    skim: SkimRegister,
    ledger: ProgressLedger,
    skim_cut: Optional[tuple],
    timed_out: bool,
) -> IntermittentRun:
    """Turn one finished lane walk into an :class:`IntermittentRun`.

    Output materialization, the skim handoff to live interpretation,
    stats merging and result assembly. ``args`` is the lane's entry of
    :func:`run_batch_group`'s ``lane_args``. The caller holds
    ``record.lock``: ``materialize_cpu`` resets the record's cached CPU
    in place, and the live suffix of a skim handoff runs on it."""
    start_tick = args["start_tick"]
    if skim_cut is None:
        completed = policy.halted
        if completed:
            outputs = {k: list(v) for k, v in record.final_outputs.items()}
        else:
            watermark = policy.max_position
            cpu = record.materialize_cpu(kernel, inputs, watermark, watermark)
            outputs = kernel.read_outputs(cpu)
        ledger.close()
        result = RunResult(
            completed=completed,
            skim_taken=False,
            timed_out=timed_out,
            wall_ms=supply.tick - start_tick,
            on_ms=supply.total_on_ms,
            off_ms=supply.total_off_ms,
            active_cycles=supply.total_cycles,
            outages=supply.outages,
            runtime_stats=policy.stats,
            ledger=ledger,
        )
        return IntermittentRun(outputs=outputs, result=result)

    # Skim handoff: rebuild the concrete state at the cut and run the
    # rest live. Memory reflects the furthest position ever executed
    # (re-executed stores rewrite identical values); the registers are
    # the checkpoint's, and the PC jumps to the consumed skim target.
    cut, target, pending = skim_cut
    cpu = record.materialize_cpu(kernel, inputs, cut, policy.max_position)
    checkpoint = Checkpoint.from_cpu(cpu)
    cpu.pc = target
    cpu.halted = False
    live_runtime = runtime_row(args["runtime"]).live(
        kernel, skim, args.get("watchdog_cycles")
    )
    live = IntermittentExecutor(cpu, supply, live_runtime)
    if hasattr(live_runtime, "checkpoint"):
        # The live runtime's entry checkpoint must be the *pre-skim*
        # checkpoint: a skim jump does not move the backup location, so
        # an outage before the next checkpoint rewinds behind the skim
        # target (exactly what the live path does).
        live_runtime.checkpoint = checkpoint
    elapsed = supply.tick - start_tick
    # The live suffix books into this lane's ledger, so re-execution
    # debt queued before the cut is repaid (as ``reexec``) exactly as
    # in one uninterrupted interpreter run.
    handoff = live.run(
        max_wall_ms=args["max_wall_ms"] - elapsed, carry_overhead=pending,
        ledger=ledger,
    )
    _merge_stats(policy.stats, handoff.runtime_stats)
    result = RunResult(
        completed=handoff.completed,
        skim_taken=True,
        timed_out=handoff.timed_out,
        wall_ms=supply.tick - start_tick,
        on_ms=supply.total_on_ms,
        off_ms=supply.total_off_ms,
        active_cycles=supply.total_cycles,
        outages=supply.outages,
        runtime_stats=policy.stats,
        ledger=ledger,
    )
    return IntermittentRun(outputs=kernel.read_outputs(cpu), result=result)


def _fallback_reason(exc: Exception) -> str:
    kind = "diverged" if isinstance(exc, ReplayDiverged) else "stalled"
    return f"{kind}: {exc}"


def run_batch_group(
    kernel,
    record: ReplayRecord,
    inputs,
    lane_args: List[Dict],
) -> List[Optional[IntermittentRun]]:
    """Run one configuration's samples as replay lanes over ``record``.

    ``lane_args`` is one dict per sample with keys ``trace``,
    ``runtime`` (a name in :mod:`repro.runtime.table`; any other raises
    ``ValueError``), ``capacitor``, ``energy_model``, ``start_tick``,
    ``max_wall_ms`` and (optionally) ``watchdog_cycles``. Returns one :class:`IntermittentRun` per sample in order, with
    ``None`` for demoted lanes the caller must run on the interpreter.
    Under ``REPRO_TRACE`` each demotion emits a ``replay_fallback``
    event with its reason. An armed sample deadline
    (:func:`~repro.runtime.executor.set_sample_deadline`) is polled once
    per simulated millisecond and raises
    :class:`~repro.errors.SampleTimeout` out of the walk. Threads may
    share ``record``: groups on one record run one at a time.
    """
    traced = TRACER.enabled
    rows = [runtime_row(args["runtime"]) for args in lane_args]
    if not record.replayable:
        if traced:
            for _args in lane_args:
                TRACER.emit(
                    "replay_fallback", reason=f"not-replayable: {record.reason}"
                )
        return [None] * len(lane_args)
    with record.lock:
        if lane_args and record.batch is None:
            index = build_batch_index(record)
            record.batch = index if index is not None else False
        timed = sample_deadline_armed()
        walked = []
        for args, row in zip(lane_args, rows):
            skim = SkimRegister()
            policy = row.replay(record, kernel, skim, args.get("watchdog_cycles"))
            supply = PowerSupply(
                args["trace"], args["capacitor"], args["energy_model"],
                start_tick=args["start_tick"],
            )
            ledger = ProgressLedger()
            try:
                skim_cut, timed_out = _walk(
                    supply, policy, skim, ledger,
                    trace_energy_array(args["trace"]), args["max_wall_ms"],
                    traced, timed,
                )
            except _DEMOTE as exc:
                if traced:
                    TRACER.emit(
                        "replay_fallback", reason=_fallback_reason(exc)
                    )
                walked.append(None)
            else:
                walked.append(
                    (args, supply, policy, skim, ledger, skim_cut, timed_out)
                )
        # Lanes finish after every walk: materialization then runs back
        # to back over the record's keyframe images, measured ~8% faster
        # than finishing each lane right after its own walk.
        runs: List[Optional[IntermittentRun]] = []
        for lane in walked:
            try:
                runs.append(
                    None if lane is None
                    else finish_replay_run(kernel, record, inputs, *lane)
                )
            except _DEMOTE as exc:
                if traced:
                    TRACER.emit(
                        "replay_fallback", reason=_fallback_reason(exc)
                    )
                runs.append(None)
        return runs
