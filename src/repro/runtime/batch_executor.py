"""The replay engine: one configuration's samples walked over its commit log.

Every intermittent sample of one (workload, mode, bits) configuration
consumes the same recorded instruction stream
(:class:`~repro.sim.replay.ReplayRecord`); the power trace only decides
where outages cut it. :func:`run_batch_group` runs a configuration's
samples as **lanes** over that one record. Each lane owns real
:class:`~repro.power.supply.PowerSupply`, replay policy, skim register
and :class:`~repro.observability.ledger.ProgressLedger` objects and
runs the one intermittent loop of :mod:`repro.runtime.executor`, the
loop :class:`~repro.runtime.executor.IntermittentExecutor` runs:
charge, restore, tick budgeting, pending-overhead carry, watchdog
chunking, the Hibernus snapshot reserve, outage bookkeeping. The lane's
:class:`~repro.runtime.base.ReplayPolicy` is the loop's surface:
executing a chunk is its
:meth:`~repro.runtime.base.ReplayPolicy.run_chunk` (a bisect over cost
prefix sums, split at the runtime's own events) and restoring a
checkpoint is rewinding a stream position. Because the per-tick cycle
consumption is reproduced exactly, every lane sees the identical energy
trajectory, ``RunResult`` and outputs as the interpreter path.

Each runtime's :class:`~repro.runtime.base.ReplayPolicy` is the only
statement of its replay semantics: the loop never looks inside a
chunk, so a new runtime needs a live runtime, a replay policy and a row
in :mod:`repro.runtime.table`, and nothing else. Lanes share only the
record's memoized answers — WAR horizons (answered in one shot by
:class:`~repro.sim.batch_replay.BatchIndex`), output-store positions
and keyframe images — which are order-independent, so lanes walk one
after another (and then finish in order), and a one-lane group is
exactly per-sample replay. The off-phase charge loop is the supply's
own :meth:`~repro.power.supply.PowerSupply.charge_until_on`, as in the
interpreter.

Those memos, the WAR index and the materialized CPU are mutable
state on the record, and threads of one process share records (the
service's pool runs jobs of one configuration side by side), so a
group holds the record's lock from its first walk to its last finish:
groups on one record take turns, groups on different records overlap.

Two situations leave the log:

* **Skim handoff** — a restore consumes an armed skim register. The
  post-skim suffix (checkpoint registers + skim-target PC) was never
  recorded, so a replay policy does not follow the skim
  (``follows_skim``) and the loop stops there. The lane's finish,
  :func:`finish_replay_run`, reconstructs the concrete CPU and memory
  state at the cut from the nearest keyframe and store log, builds the
  live side of the loop on the lane's own supply, skim register and
  runtime stats, and resumes the same loop with the lane's ledger and
  the restore's unpaid cost.
* **Demotion** — a policy divergence
  (:class:`~repro.sim.replay.ReplayDiverged`, e.g. Hibernus rewinding
  into a non-idempotent segment) or a forward-progress stall or dead
  trace (:class:`~repro.errors.ProgressStall`) drops the lane, reported
  as ``None``; the caller runs that sample on the interpreter, which
  reproduces it (or its typed error) exactly. A non-replayable record
  demotes every lane.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.anytime import IntermittentRun
from ..errors import ProgressStall
from ..observability.ledger import ProgressLedger
from ..observability.tracer import TRACER
from ..power.supply import PowerSupply
from ..sim.replay import ReplayDiverged, ReplayRecord
from .base import ReplayPolicy
from .checkpoint import Checkpoint
from .executor import IntermittentExecutor, RunResult, _intermittent_loop
from .skim import SkimRegister
from .table import runtime_row

#: Exceptions that demote one lane to the interpreter.
_DEMOTE = (ReplayDiverged, ProgressStall)


def finish_replay_run(
    kernel,
    record: ReplayRecord,
    inputs,
    args: Dict,
    supply: PowerSupply,
    policy: ReplayPolicy,
    skim: SkimRegister,
    ledger: ProgressLedger,
    walked: Tuple[bool, bool, int],
) -> IntermittentRun:
    """Turn one finished lane walk into an :class:`IntermittentRun`.

    ``walked`` is what the lane's loop returned: ``(skim_taken,
    timed_out, pending_overhead)``. A lane that stopped at a skim
    resumes the loop on a live CPU; the others materialize their
    outputs. ``args`` is the lane's entry of :func:`run_batch_group`'s
    ``lane_args``. The caller holds ``record.lock``: ``materialize_cpu``
    resets the record's cached CPU in place, and the live suffix of a
    skim handoff runs on it."""
    skim_taken, timed_out, pending = walked
    start_tick = args["start_tick"]
    if skim_taken:
        # Skim handoff: rebuild the concrete state at the cut and run
        # the rest live. Memory reflects the furthest position ever
        # executed (re-executed stores rewrite identical values); the
        # registers are the checkpoint's, and the PC jumps to the
        # consumed skim target.
        cpu = record.materialize_cpu(
            kernel, inputs, policy.resume_position, policy.max_position
        )
        checkpoint = Checkpoint.from_cpu(cpu)
        cpu.pc = policy.skim_redirect
        cpu.halted = False
        runtime = runtime_row(args["runtime"]).live(
            kernel, skim, args.get("watchdog_cycles")
        )
        # The live suffix books into the lane's stats and ledger, so
        # re-execution debt queued before the cut is repaid (as
        # ``reexec``) exactly as in one uninterrupted interpreter run.
        runtime.stats = policy.stats
        live = IntermittentExecutor(cpu, supply, runtime)
        if hasattr(runtime, "checkpoint"):
            # The live runtime's entry checkpoint must be the *pre-skim*
            # checkpoint: a skim jump does not move the backup location,
            # so an outage before the next checkpoint rewinds behind the
            # skim target (exactly what the live path does).
            runtime.checkpoint = checkpoint
        _, timed_out, _ = _intermittent_loop(
            supply, live, ledger, start_tick, args["max_wall_ms"], pending
        )
        completed = cpu.halted
        outputs = kernel.read_outputs(cpu)
    elif policy.halted:
        completed = True
        outputs = {k: list(v) for k, v in record.final_outputs.items()}
    else:
        completed = False
        watermark = policy.max_position
        cpu = record.materialize_cpu(kernel, inputs, watermark, watermark)
        outputs = kernel.read_outputs(cpu)
    ledger.close()
    # The lane's supply is its own, so its counters are the run's.
    result = RunResult(
        completed=completed,
        skim_taken=skim_taken,
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
                outcome = _intermittent_loop(
                    supply, policy, ledger, args["start_tick"],
                    args["max_wall_ms"],
                )
            except _DEMOTE as exc:
                if traced:
                    TRACER.emit(
                        "replay_fallback", reason=_fallback_reason(exc)
                    )
                walked.append(None)
            else:
                walked.append((args, supply, policy, skim, ledger, outcome))
        # Lanes finish after every walk, so the skim handoffs resume the
        # loop there and not inside the walk: materialization then runs
        # back to back over the record's keyframe images, measured ~8%
        # faster than finishing each lane right after its own walk.
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
