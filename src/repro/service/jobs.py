"""Job preparation and execution for the experiment service.

:func:`normalize` validates a submitted spec and :func:`prepared` looks
its context up; both are cheap and run on the event loop. The rest runs
in the service's worker threads: :func:`prepare` rejects jobs that
cannot compile and does the calibration work needed to fingerprint a
job, and :func:`compute` evaluates a cache miss on the replay engine
(one commit-log walk for the whole trace x invocation grid), sending
any sample it cannot reproduce exactly to the interpreter, as every
harness grid does. Results are therefore bit-identical to a serial CLI
run of the same configuration, which is what lets the store serve them
to everyone.

The service keeps no build state of its own: workloads, kernels and
commit logs come from the harness's per-process caches
(:func:`~repro.experiments.common.worker_workload` and
:func:`~repro.experiments.common.worker_build`), which the offline
grids of the same process share. :func:`prepare` keeps each context it
builds in the same byte-budgeted ``_worker_cache``, keyed by the
normalized spec, so a job the process has prepared before is not
prepared again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..compiler.passes.swv import SWV_WIDTHS
from ..experiments.common import (
    BenchmarkResult,
    Environment,
    ExperimentSetup,
    _finish_result,
    _run_config_group,
    _run_sample,
    _sample_specs,
    _store_payload,
    _worker_cache,
    calibrate_environment,
    measure_precise_cycles,
    worker_workload,
)
from ..store.cas import config_fingerprint
from ..workloads.base import Workload
from .protocol import JobSpec

#: Bytes one memoized :class:`JobContext` retains in ``_worker_cache``,
#: its spec and cache entry included but not its workload, which every
#: context of that workload and scale shares: tracemalloc gave 952 B
#: per context over 200 distinct default-scale MatMul, Home and FC specs.
_CONTEXT_BYTES = 950


@dataclass
class JobContext:
    """Everything :func:`compute` needs, resolved once per job."""

    spec: JobSpec
    fingerprint: str
    workload: Workload
    setup: ExperimentSetup
    environment: Environment

    def nbytes(self) -> int:
        """The bytes ``_worker_cache`` accounts to this context."""
        return _CONTEXT_BYTES


def normalize(spec: JobSpec) -> JobSpec:
    """``spec`` validated, with ``bits`` dropped from a precise job,
    which ignores it, so equal work shares one fingerprint.

    Raises ``ValueError`` as :meth:`JobSpec.validate` does. Afterwards
    every field is a ``str``, an ``int`` or None, so specs compare and
    hash exactly. Before, they do not: specs with ``trace_seed`` 1,
    1.0 and ``true`` are equal, and a precise job's list ``bits``
    cannot be hashed."""
    spec.validate()
    if spec.mode == "precise" and spec.bits is not None:
        spec = replace(spec, bits=None)
    return spec


def prepared(spec: JobSpec) -> Optional[JobContext]:
    """The context :func:`prepare` built for the normalized ``spec`` in
    this process, or None if it has not (or it was evicted)."""
    return _worker_cache.get(("prepared", spec))


def prepare(spec: JobSpec) -> JobContext:
    """Validate a spec and resolve its fingerprint + calibrated setup.

    Normalizes the spec (:func:`normalize`), and rejects a mode the
    workload's technique cannot compile and SWV bits the compiler
    cannot pack (before the server journals the job). Sizes the storage
    capacitor from the precise build's cycle count — the same
    calibration every experiment module performs, read off the precise
    record the process has cached — so the fingerprint matches what a
    direct :func:`~repro.experiments.common.run_benchmark` of the same
    configuration would use. The context is kept for :func:`prepared`;
    a spec this rejects is never kept."""
    spec = normalize(spec)
    workload = worker_workload(spec.workload, spec.scale)
    if spec.mode not in ("precise", workload.technique):
        raise ValueError(
            f"{spec.workload} is a {workload.technique} kernel; "
            f"mode {spec.mode!r} cannot compile it"
        )
    if spec.mode == "swv" and spec.bits not in SWV_WIDTHS:
        raise ValueError(
            f"invalid bits {spec.bits!r} for mode 'swv' "
            f"(SWV packs {' or '.join(map(str, SWV_WIDTHS))}-bit subwords)"
        )
    setup = spec.setup()
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    fingerprint = config_fingerprint(
        spec.workload, spec.scale, spec.mode, spec.bits, spec.runtime,
        setup, environment,
    )
    return _worker_cache.add(("prepared", spec), JobContext(
        spec=spec, fingerprint=fingerprint, workload=workload,
        setup=setup, environment=environment,
    ))


def _sample_summary(run) -> dict:
    """The small dict a progressive event carries for one sample."""
    summary = {
        "wall_ms": run.wall_ms,
        "on_ms": run.on_ms,
        "outages": run.outages,
        "skim_taken": run.skim_taken,
        "error": run.error,
    }
    if run.accuracy is not None:
        summary["accuracy"] = run.accuracy
    return summary


def compute(
    ctx: JobContext,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict:
    """Evaluate one cache miss; returns the store payload.

    When ``progress`` is given, the grid's **first sample** is executed
    eagerly on the interpreter and reported as a ``level-k`` event
    before the replayed full-grid pass starts — that sample *is* the
    paper's anytime answer (output accepted at a skim point when one is
    armed), so a client holds a usable approximation while the other
    ``trace_count x invocations - 1`` samples refine it. The replay
    pass recomputes that lane bit-identically (enforced by the engine
    differential suite), so the preview costs one interpreted sample
    and changes nothing in the final result."""
    spec = ctx.spec
    specs = _sample_specs(
        ctx.workload, spec.mode, spec.bits, spec.runtime,
        ctx.setup, ctx.environment, None,
    )
    if progress is not None and specs:
        first = _run_sample(specs[0])
        progress(
            "level-k",
            {
                "samples_done": 1,
                "samples_total": len(specs),
                "sample": _sample_summary(first),
            },
        )
    result = BenchmarkResult(spec.workload, spec.mode, spec.bits, spec.runtime)
    result.runs.extend(_run_config_group(specs))
    payload = _store_payload(result, ctx.fingerprint, spec.scale, ctx.setup)
    _finish_result(result, ctx.setup)
    return payload
