"""Shared infrastructure for the paper-reproduction experiments.

Key calibration decision (documented in DESIGN.md): the paper's kernels
run for hundreds of milliseconds and span many capacitor charges; our
scaled-down kernels are shorter, so we scale the storage capacitor with
them to preserve the paper's regime of *multiple power outages per
input*. ``calibrate_environment`` sizes the capacitor so one full
charge funds ``1/charges_per_run`` of the precise kernel, and sets the
Clank watchdog safely below one charge (preventing re-execution
livelock).

The paper invokes each application 3 times on 9 voltage traces and
reports medians; :func:`run_benchmark` mirrors that.

Engines: the replay engine runs every grid. Each (workload, scale,
mode, bits) configuration is recorded once and all its samples replay
as lanes of one commit-log walk (:mod:`repro.runtime.batch_executor`);
calibration reads the precise build's log too. The interpreter
(:meth:`~repro.core.anytime.AnytimeKernel.run_intermittent`) is the
golden model: it runs the lanes the replay engine cannot reproduce
exactly, the builds it cannot record, and one sample at a time through
:func:`_run_sample`, which the differential tests compare against. Both
engines produce identical samples.

Parallelism: every sample is deterministic given (workload name, scale,
mode, bits, runtime, environment, trace index, invocation). Setting
``REPRO_JOBS=N`` (N > 1) fans the grid over N worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`, one configuration per
task; results are merged in grid order, so the output is identical to
the serial run.

Caching: with ``REPRO_STORE=<dir>`` every finished configuration is
persisted to (and served from) the global content-addressed result
store (:mod:`repro.store`), keyed by the sha256 of its canonical config
description — shared across runs, figure experiments, ``bench --grid``
and the experiment service. The key embeds the package/schema version
so stale caches self-invalidate. ``REPRO_FAULTS`` disables the store by
design.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.anytime import AnytimeConfig, AnytimeKernel
from ..core.quality import nrmse
from ..errors import IncompleteRun, SampleTimeout
from ..observability.ledger import LEDGER_ENV, merge_bucket_dicts
from ..observability.manifest import record_result
from ..observability.metrics import METRICS_ENV, Metrics
from ..observability.profiler import PROFILER
from ..observability.tracer import TRACER
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..power.harvester import paper_trace, paper_traces
from ..power.trace import PowerTrace
from ..runtime.executor import set_sample_deadline
from ..runtime.table import runtime_row
from ..sim.replay import ReplayRecord, record_run
from ..store.cas import (
    STORE_ENV,
    ResultStore,
    config_fingerprint,
    result_payload,
)
from ..workloads.base import Workload


@dataclass
class ExperimentSetup:
    """Knobs shared by all experiments."""

    scale: str = "default"
    trace_count: int = 9
    invocations: int = 3
    trace_duration_ms: int = 3000
    trace_seed: int = 100
    charges_per_run: float = 12.0
    min_swing_cycles: int = 1000
    max_wall_ms: int = 2_000_000

    def traces(self) -> List[PowerTrace]:
        return paper_traces(
            count=self.trace_count,
            duration_ms=self.trace_duration_ms,
            base_seed=self.trace_seed,
        )


@dataclass
class Environment:
    """Calibrated power environment for one benchmark."""

    capacitor_f: float
    watchdog_cycles: int
    swing_cycles: int

    def capacitor(self) -> Capacitor:
        # v_max clamped at 3.3 V: harvester front ends limit the storage
        # voltage, which keeps charge sizes uniform (one swing each).
        return Capacitor(capacitance_f=self.capacitor_f, v_initial=3.0, v_max=3.3)


def calibrate_environment(
    precise_cycles: int,
    setup: ExperimentSetup,
    energy: Optional[EnergyModel] = None,
) -> Environment:
    """Size the capacitor so the precise run spans ~charges_per_run charges."""
    energy = energy or EnergyModel()
    swing_cycles = max(
        int(precise_cycles / setup.charges_per_run), setup.min_swing_cycles
    )
    swing_energy = energy.energy_for_cycles(swing_cycles)
    cap = Capacitor()  # for the voltage thresholds
    capacitance = 2.0 * swing_energy / (cap.v_on**2 - cap.v_off**2)
    watchdog = max(500, swing_cycles // 2)
    return Environment(
        capacitor_f=capacitance,
        watchdog_cycles=watchdog,
        swing_cycles=swing_cycles,
    )


@dataclass
class SampleRun:
    """One intermittent execution of one input sample.

    ``metrics`` carries the per-sample :class:`Metrics` rollup and
    ``ledger`` the forward-progress bucket split
    (:meth:`~repro.observability.ledger.ProgressLedger.bucket_dict`),
    both as plain dicts (pickle-friendly across the ``REPRO_JOBS``
    pool). They are excluded from equality/repr so differential
    comparisons — replay vs interpreter, serial vs parallel — keep
    comparing the six result fields only."""

    wall_ms: int
    on_ms: int
    active_cycles: int
    outages: int
    skim_taken: bool
    error: float
    #: Top-1 classification accuracy in [0, 1] for workloads with an
    #: accuracy hook (the NN inference family); None elsewhere. Part of
    #: equality: accuracy is a pure function of the outputs, so engines
    #: that agree on outputs must agree here too.
    accuracy: Optional[float] = None
    metrics: Optional[dict] = field(default=None, compare=False, repr=False)
    ledger: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class BenchmarkResult:
    """Median statistics over traces x invocations (one configuration)."""

    name: str
    mode: str  # "precise" | "swp" | "swv"
    bits: Optional[int]
    runtime: str  # a name in repro.runtime.table
    runs: List[SampleRun] = field(default_factory=list)

    @property
    def median_wall_ms(self) -> float:
        return statistics.median(r.wall_ms for r in self.runs)

    @property
    def median_error(self) -> float:
        return statistics.median(r.error for r in self.runs)

    @property
    def median_accuracy(self) -> Optional[float]:
        """Median top-1 accuracy, or None for NRMSE-only workloads."""
        scores = [r.accuracy for r in self.runs if r.accuracy is not None]
        return statistics.median(scores) if scores else None

    @property
    def skim_rate(self) -> float:
        return sum(r.skim_taken for r in self.runs) / len(self.runs)

    def merged_metrics(self) -> Metrics:
        """Merge every sample's metrics into one configuration rollup.

        The merge is associative and order-independent for counters and
        histograms, so serial and ``REPRO_JOBS`` runs produce identical
        rollups (asserted in ``tests/test_observability.py``)."""
        merged = Metrics()
        for run in self.runs:
            if run.metrics:
                merged.merge(Metrics.from_dict(run.metrics))
        return merged

    def merged_ledger(self) -> Optional[dict]:
        """Merge every sample's progress-ledger buckets into one rollup.

        Bucket sums are associative integers/floats merged in grid
        order, so — like :meth:`merged_metrics` — serial and
        ``REPRO_JOBS`` runs produce identical rollups (asserted in
        ``tests/test_profiler_ledger.py``). ``None`` when no sample
        carried a ledger (ad-hoc pre-ledger SampleRuns)."""
        merged: Optional[dict] = None
        for run in self.runs:
            if run.ledger:
                merged = merge_bucket_dicts(merged, run.ledger)
        return merged


def build_anytime(workload: Workload, mode: str, bits: Optional[int] = None,
                  **config_kwargs) -> AnytimeKernel:
    """AnytimeKernel for a workload in the given mode."""
    config = AnytimeConfig(mode=mode, bits=bits, **config_kwargs)
    return AnytimeKernel(workload.kernel, config)


def measure_precise_cycles(workload: Workload) -> int:
    """Continuous-power runtime of the precise build (the baseline).

    Read off the precise build's commit log: the record lands in the
    :data:`_worker_cache` entry the precise configuration's replay
    groups reuse. The build runs on the interpreter when it cannot be
    recorded, or for a workload without a ``scale`` (not rebuildable by
    name, so not cached)."""
    if workload.scale is None:
        kernel = build_anytime(workload, "precise")
    else:
        kkey = (workload.name, workload.scale, "precise", None)
        entry = _worker_cache.get(kkey)
        if entry is None:
            entry = _worker_cache.add(kkey, _Compiled(build_anytime(workload, "precise")))
        kernel = entry.kernel
        record = _record_for(kkey, kernel, workload.inputs)
        if record.replayable:
            return record.cum_cost[-1]
    return kernel.run(workload.inputs).cycles


#: Set after the first invalid-``REPRO_JOBS`` warning so a run that
#: consults :func:`experiment_jobs` many times (once per benchmark in a
#: figure grid) warns exactly once. Worker processes inherit the
#: environment but never print: the parent validated first and each
#: worker's flag starts False only in a process that re-parses — which
#: is fine, because workers are only spawned when the value parsed.
_jobs_warning_emitted = False


def experiment_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial).

    An unparseable value — and a parseable but meaningless one like
    ``0`` or a negative count — falls back to serial with a single
    stderr warning per process (not one per benchmark)."""
    global _jobs_warning_emitted
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0  # flows into the same warn-once fallback below
    if jobs < 1:
        if not _jobs_warning_emitted:
            _jobs_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_JOBS={raw!r} "
                "(want a positive integer); running serially",
                file=sys.stderr,
            )
        return 1
    return jobs


#: Warn-once latches for the robustness knobs, mirroring
#: ``_jobs_warning_emitted``: an invalid value degrades to "knob off"
#: with a single stderr line per process, never a crash.
_timeout_warning_emitted = False
_faults_warning_emitted = False


def experiment_sample_timeout() -> Optional[float]:
    """Per-sample wall-clock budget in seconds from
    ``REPRO_SAMPLE_TIMEOUT`` (``None`` = no timeout).

    The budget is enforced *cooperatively*: the harness arms the
    executor deadline (:func:`~repro.runtime.executor.set_sample_deadline`)
    around each sample on either engine, so a pathological sample
    raises a typed
    :class:`~repro.errors.SampleTimeout` inside its own process instead
    of hanging a ``REPRO_JOBS`` worker forever."""
    global _timeout_warning_emitted
    raw = os.environ.get("REPRO_SAMPLE_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        timeout = 0.0
    if timeout <= 0:
        if not _timeout_warning_emitted:
            _timeout_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_SAMPLE_TIMEOUT={raw!r} "
                "(want a positive number of seconds); no sample timeout",
                file=sys.stderr,
            )
        return None
    return timeout


def experiment_faults() -> Optional[int]:
    """Chaos seed from ``REPRO_FAULTS`` (``None`` = faults off).

    When set, every grid sample swaps its paper power trace for a
    seeded adversarial trace from the fault engine's fuzzer
    (burst-outage or knife-edge, alternating per sample), so any
    experiment — including a full figure grid — can be re-run under
    hostile power without touching its code. The swap is a pure
    function of (seed, trace index, invocation): deterministic and
    identical across serial and ``REPRO_JOBS`` runs."""
    global _faults_warning_emitted
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        if not _faults_warning_emitted:
            _faults_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_FAULTS={raw!r} "
                "(want an integer seed); faults disabled",
                file=sys.stderr,
            )
        return None


def experiment_store() -> Optional[ResultStore]:
    """The content-addressed result store from ``REPRO_STORE``.

    ``None`` when the variable is unset — or when ``REPRO_FAULTS`` is
    armed: chaos runs exist to stress recompute paths with adversarial
    power, so they bypass the cache by design (their results must never
    be served to a normal run, nor vice versa)."""
    raw = os.environ.get(STORE_ENV, "").strip()
    if not raw or experiment_faults() is not None:
        return None
    return ResultStore(raw)


def _fault_trace(seed: int, spec: "SampleSpec") -> PowerTrace:
    """The adversarial replacement trace for one sample under
    ``REPRO_FAULTS`` — seeded per (trace index, invocation) so the grid
    keeps its per-sample diversity."""
    from ..fault.fuzz import burst_outage_trace, knife_edge_trace

    sample_seed = (
        seed * 1_000_003 + spec.trace_index * 131 + spec.invocation
    ) & 0x7FFFFFFF
    if sample_seed % 2:
        return knife_edge_trace(sample_seed, duration_ms=spec.trace_duration_ms)
    return burst_outage_trace(sample_seed, duration_ms=spec.trace_duration_ms)


@dataclass(frozen=True)
class SampleSpec:
    """Everything a worker process needs to reproduce one grid sample.

    Only primitives: specs cross the pickle boundary. Traces and
    workloads are regenerated in the worker from their seeds/names
    (both are deterministic) and cached per process.
    """

    workload_name: str
    scale: str
    mode: str
    bits: Optional[int]
    runtime: str
    trace_index: int
    invocation: int
    capacitor_f: float
    watchdog_cycles: int
    trace_count: int
    trace_duration_ms: int
    trace_seed: int
    max_wall_ms: int
    reference: Optional[Tuple[float, ...]] = None


#: Byte budget of :data:`_worker_cache`. The working sets it must hold
#: without evicting, in its own accounting (the mixed-open and grid-cli
#: plans of bench/workloads.py, seed 41, run in one process):
#: mixed-open reuses 9 default-scale records (MatMul, MLP and Home x
#: precise/8-bit/4-bit), 6.9 MiB with their keyframe deltas and
#: materialization state, plus 0.6 MiB of kernels and 56 trace sets
#: of 3 x 3000 ms (7.7 MiB with their energy arrays): 15.2 MiB in all.
#: grid-cli's 12 records take 14.8 MiB (Conv2d swp-4 alone 4.7 MiB)
#: and its kernels and trace sets 1.2 MiB: 16.5 MiB. 64 MiB holds
#: either with room to spare, while a long run no longer keeps every
#: record and trace set it ever built (cold-configs' 61 configurations
#: held 574 MiB in one process without a bound).
CACHE_BUDGET_BYTES = 64 << 20

#: Retained bytes of a compiled kernel per program instruction, with the
#: decoded view its program caches after its first run:
#: tracemalloc gave 485-645 B on MatMul, MLP, Home and Conv2d at default
#: scale and on CNN tiny swp-1.
_KERNEL_BYTES_PER_INSTRUCTION = 600


class _WorkerCache:
    """Thread-safe LRU of rebuildable per-process state, bounded in bytes.

    Values are :class:`_Compiled` kernels with their commit logs, and
    :class:`_TraceSet` trace sets; each reports its size (``nbytes``)
    when it is added or re-accounted. Evicting one only costs a rebuild
    (re-compile, re-record, re-synthesize from the seed), never a
    different result. The total is brought back under
    :data:`CACHE_BUDGET_BYTES` by evicting the least recently used
    entries, possibly the one just added."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> [value, accounted bytes], least recently used first.
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self.bytes = 0
        self.evictions = 0

    def get(self, key: tuple):
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def add(self, key: tuple, value):
        """Cache ``value`` unless ``key`` is present; returns the value
        the key now holds (another thread's, if it added first)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            nbytes = value.nbytes()
            self._entries[key] = [value, nbytes]
            self.bytes += nbytes
            self._evict()
            return value

    def reaccount(self, key: tuple) -> None:
        """Re-read the size of the value under ``key``, which grows as
        it is used; nothing if the key was evicted."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            nbytes = entry[0].nbytes()
            self.bytes += nbytes - entry[1]
            entry[1] = nbytes
            self._evict()

    def _evict(self) -> None:
        while self.bytes > CACHE_BUDGET_BYTES and self._entries:
            _key, (_value, nbytes) = self._entries.popitem(last=False)
            self.bytes -= nbytes
            self.evictions += 1

    def keys(self) -> List[tuple]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> dict:
        """``bytes``, ``budget``, ``entries`` and ``evictions`` (since
        the process started)."""
        with self._lock:
            return {
                "bytes": self.bytes,
                "budget": CACHE_BUDGET_BYTES,
                "entries": len(self._entries),
                "evictions": self.evictions,
            }


class _Compiled:
    """One kernel configuration's cache entry: the kernel and, once the
    replay engine asks for it, its commit log. They share an entry so
    they leave together: the record's materialization cache is keyed by
    its kernel's identity."""

    __slots__ = ("kernel", "record")

    def __init__(self, kernel: AnytimeKernel,
                 record: Optional[ReplayRecord] = None) -> None:
        self.kernel = kernel
        self.record = record

    def nbytes(self) -> int:
        size = (len(self.kernel.compiled.program.instructions)
                * _KERNEL_BYTES_PER_INSTRUCTION)
        if self.record is not None:
            size += self.record.nbytes()
        return size


class _TraceSet(list):
    """One trace set's cache entry: slot ``i`` holds paper trace ``i``
    once a sample has asked for it, else None."""

    __slots__ = ()

    def nbytes(self) -> int:
        return sum(trace.nbytes() for trace in self if trace is not None)


# Per-process caches: workers in a pool handle many samples of the same
# configuration, so the expensive rebuilds happen once per process.
# Workloads (at most one per workload and scale) stay in a plain dict;
# kernels, commit logs and trace sets share the byte-budgeted cache.
_worker_workloads: Dict[Tuple[str, str], Tuple[Workload, Tuple[float, ...]]] = {}
_worker_cache = _WorkerCache()


#: Bytes one register-file backup writes (16 regs + PSR + PC, one NVM
#: word each) — mirrors ``Checkpoint.size_words``.
_CHECKPOINT_BYTES = (16 + 1 + 1) * 4


def _sample_metrics(
    run, engine: str, fallback: bool, error: float,
    accuracy: Optional[float] = None,
) -> dict:
    """The per-sample :class:`Metrics` rollup, as a picklable dict.

    Built once per finished sample (cold path), so it is collected
    unconditionally — ``REPRO_METRICS`` only gates whether the parent
    *writes* the merged rollups anywhere.
    """
    result = run.result
    stats = result.runtime_stats
    metrics = Metrics()
    metrics.count("samples")
    metrics.count(f"engine.{engine}")
    if fallback:
        metrics.count("replay_fallbacks")
    metrics.count("outages", result.outages)
    metrics.count("checkpoints", stats.checkpoints)
    metrics.count("checkpoint_bytes", stats.checkpoints * _CHECKPOINT_BYTES)
    metrics.count("restores", stats.restores)
    metrics.count("war_violations", stats.war_violations)
    metrics.count("watchdog_checkpoints", stats.watchdog_checkpoints)
    if result.skim_taken:
        metrics.count("skims_taken")
    metrics.observe("wall_ms", result.wall_ms)
    metrics.observe("on_ms", result.on_ms)
    metrics.observe("active_cycles", result.active_cycles)
    # One "on period" per power cycle: outages + the final completing one.
    metrics.observe(
        "cycles_per_on_period", result.active_cycles / (result.outages + 1)
    )
    metrics.observe("checkpoint_cycles", stats.checkpoint_cycles)
    metrics.observe("restore_cycles", stats.restore_cycles)
    metrics.observe("error", error)
    if accuracy is not None:
        metrics.observe("accuracy", accuracy)
    return metrics.to_dict()


def _sample_ledger(run, energy: EnergyModel) -> dict:
    """The per-sample forward-progress buckets, as a picklable dict.

    Priced at this sample's energy model (NVP's backup tax included),
    so energy buckets sum to the sample's total energy exactly."""
    return run.result.ledger.bucket_dict(energy.energy_per_cycle)


def _deadlined(work, arg):
    """``work(arg)`` under the cooperative ``REPRO_SAMPLE_TIMEOUT``
    deadline (:func:`~repro.runtime.executor.set_sample_deadline`), so
    a pathological sample raises a typed
    :class:`~repro.errors.SampleTimeout` inside its own process instead
    of hanging its worker."""
    timeout = experiment_sample_timeout()
    if timeout is None:
        return work(arg)
    set_sample_deadline(time.monotonic() + timeout)
    try:
        return work(arg)
    finally:
        set_sample_deadline(None)


def _run_sample(spec: SampleSpec) -> SampleRun:
    """Execute one (trace, invocation) sample on the interpreter, the
    golden model: the service's level-k preview and the differential
    checks against the replay engine run samples through here."""
    return _deadlined(_execute_sample, spec)


def _kernel_key(spec: SampleSpec) -> Tuple[str, str, str, Optional[int]]:
    return (spec.workload_name, spec.scale, spec.mode, spec.bits)


def _trace_key(spec: SampleSpec) -> Tuple[str, int, int, int]:
    return ("traces", spec.trace_count, spec.trace_duration_ms, spec.trace_seed)


def _sample_trace(spec: SampleSpec) -> PowerTrace:
    """The spec's power trace: its ``REPRO_FAULTS`` replacement when
    faults are armed, else its paper trace, synthesized the first time
    its index is asked for."""
    faults_seed = experiment_faults()
    if faults_seed is not None:
        return _fault_trace(faults_seed, spec)
    tkey = _trace_key(spec)
    traces = _worker_cache.get(tkey)
    if traces is None:
        traces = _worker_cache.add(tkey, _TraceSet([None] * spec.trace_count))
    trace = traces[spec.trace_index]
    if trace is None:
        trace = traces[spec.trace_index] = paper_trace(
            spec.trace_index, spec.trace_count, spec.trace_duration_ms,
            spec.trace_seed,
        )
        _worker_cache.reaccount(tkey)
    return trace


def _sample_inputs(spec: SampleSpec):
    """``(workload, reference, kernel, trace)`` for one spec.

    Rebuilt from the spec through the per-process caches; the trace is
    the spec's ``REPRO_FAULTS`` replacement when faults are armed."""
    from ..workloads import make_workload

    wkey = (spec.workload_name, spec.scale)
    if wkey not in _worker_workloads:
        workload = make_workload(spec.workload_name, spec.scale)
        _worker_workloads[wkey] = (workload, tuple(workload.decoded_reference()))
    workload, default_reference = _worker_workloads[wkey]
    reference = spec.reference if spec.reference is not None else default_reference

    kkey = _kernel_key(spec)
    entry = _worker_cache.get(kkey)
    if entry is None:
        entry = _worker_cache.add(
            kkey, _Compiled(build_anytime(workload, spec.mode, spec.bits))
        )
    return workload, reference, entry.kernel, _sample_trace(spec)


def _run_args(spec: SampleSpec, trace: PowerTrace, energy: EnergyModel) -> dict:
    """Keyword arguments of one sample's intermittent run, shared by
    ``AnytimeKernel.run_intermittent`` and the replay lanes. Built fresh
    per run: the supply charges the capacitor in place."""
    return dict(
        trace=trace,
        runtime=spec.runtime,
        capacitor=Capacitor(
            capacitance_f=spec.capacitor_f, v_initial=3.0, v_max=3.3
        ),
        energy_model=energy,
        start_tick=spec.invocation * 313,
        max_wall_ms=spec.max_wall_ms,
        watchdog_cycles=runtime_row(spec.runtime).watchdog(spec.watchdog_cycles),
    )


def _emit_sample_start(spec: SampleSpec) -> None:
    TRACER.emit(
        "sample_start", workload=spec.workload_name, scale=spec.scale,
        mode=spec.mode, bits=spec.bits, runtime=spec.runtime,
        trace=spec.trace_index, invocation=spec.invocation,
    )


def _execute_sample(spec: SampleSpec) -> SampleRun:
    """The interpreter path: rebuild the workload/kernel/trace from the
    spec (cached per process) and run it intermittently."""
    workload, reference, kernel, trace = _sample_inputs(spec)
    if TRACER.enabled:
        _emit_sample_start(spec)
    energy = runtime_row(spec.runtime).energy_model()
    run = kernel.run_intermittent(
        workload.inputs, **_run_args(spec, trace, energy)
    )
    return _finalize_sample(
        spec, run, workload, reference, trace, energy, "interp", False
    )


def _record_for(kkey: tuple, kernel: AnytimeKernel, inputs) -> ReplayRecord:
    """The commit log of the configuration under kernel key ``kkey``,
    recorded once per cache residency of its kernel (an evicted pair is
    rebuilt, never different)."""
    entry = _worker_cache.get(kkey)
    if entry is not None and entry.kernel is kernel and entry.record is not None:
        return entry.record
    record = record_run(kernel, inputs)
    _cache_record(kkey, kernel, record)
    if TRACER.enabled:
        name, _scale, mode, bits = kkey
        TRACER.emit(
            "record_run", workload=name, mode=mode, bits=bits,
            replayable=record.replayable,
            reason=record.reason or None, length=record.length,
            recorder=record.recorder,
        )
    return record


def _cache_record(kkey: tuple, kernel: AnytimeKernel, record: ReplayRecord) -> None:
    """Pair ``record`` with ``kernel`` under kernel key ``kkey`` in
    :data:`_worker_cache`, re-adding the pair if the kernel's entry was
    evicted. A key that now holds another kernel is left alone."""
    entry = _worker_cache.get(kkey)
    if entry is None:
        _worker_cache.add(kkey, _Compiled(kernel, record))
    elif entry.kernel is kernel:
        entry.record = record
        _worker_cache.reaccount(kkey)


def _finalize_sample(
    spec: SampleSpec,
    run,
    workload: Workload,
    reference,
    trace: PowerTrace,
    energy: EnergyModel,
    engine: str,
    fallback: bool,
) -> SampleRun:
    """Grade one finished intermittent run into a :class:`SampleRun`.

    Shared tail of the interpreter and replay paths, so both produce
    identical completion errors, metrics and ledger rollups."""
    if not run.result.completed:
        raise IncompleteRun(
            f"{spec.workload_name} [{spec.mode}/{spec.runtime}] did not "
            f"complete on trace {trace.name!r} within {spec.max_wall_ms} ms",
            outages=run.result.outages,
            active_cycles=run.result.active_cycles,
        )
    decoded = workload.decode(run.outputs)
    error = nrmse(reference, decoded)
    accuracy = workload.accuracy(decoded) if workload.accuracy else None
    if TRACER.enabled:
        TRACER.emit(
            "sample_end", engine=engine, completed=run.result.completed,
            skim_taken=run.result.skim_taken, wall_ms=run.result.wall_ms,
        )
    return SampleRun(
        wall_ms=run.result.wall_ms,
        on_ms=run.result.on_ms,
        active_cycles=run.result.active_cycles,
        outages=run.result.outages,
        skim_taken=run.result.skim_taken,
        error=error,
        accuracy=accuracy,
        metrics=_sample_metrics(run, engine, fallback, error, accuracy),
        ledger=_sample_ledger(run, energy),
    )


def _run_config_group(specs: List[SampleSpec]) -> List[SampleRun]:
    """One configuration's samples as lanes of one commit-log walk: the
    harness's unit of work.

    All specs share (workload, scale, mode, bits, runtime) — they are
    one configuration's trace x invocation grid in grid order. The
    configuration is recorded once (per process), its samples run as
    lanes of :func:`~repro.runtime.batch_executor.run_batch_group`, and
    every lane the engine demotes runs on the interpreter instead,
    counted as a ``replay_fallback``. Under ``REPRO_TRACE`` or
    ``REPRO_SAMPLE_TIMEOUT`` each sample is its own one-lane group, so
    its events stay between its own ``sample_start`` and
    ``sample_end`` and its deadline covers only itself. Under
    ``REPRO_PROFILE`` the configuration's recorded stream is folded
    once per call. Returns samples in grid order."""
    from ..runtime.batch_executor import run_batch_group

    if TRACER.enabled or experiment_sample_timeout() is not None:
        groups = [[spec] for spec in specs]
    else:
        groups = [specs] if specs else []

    def replay(group: List[SampleSpec]) -> List[SampleRun]:
        first = group[0]
        workload, reference, kernel, _trace = _sample_inputs(first)
        traces = [_sample_trace(spec) for spec in group]
        if TRACER.enabled:
            _emit_sample_start(first)
        record = _record_for(_kernel_key(first), kernel, workload.inputs)
        if PROFILER.enabled and record.replayable and first is specs[0]:
            # One folded profile per configuration (the replayed
            # samples all consume this same recorded stream).
            PROFILER.collect_record(
                record, kernel.compiled.program,
                f"{kernel.compiled.program.name}/{first.runtime}",
            )
        energy = runtime_row(first.runtime).energy_model()
        runs = run_batch_group(
            kernel, record, workload.inputs,
            [_run_args(spec, trace, energy) for spec, trace in zip(group, traces)],
        )
        # The walk grew the record's keyframe deltas and materialization
        # state, and gave its traces their energy arrays.
        _worker_cache.reaccount(_kernel_key(first))
        _worker_cache.reaccount(_trace_key(first))
        results = []
        for spec, trace, run in zip(group, traces, runs):
            fallback = run is None
            if fallback:
                run = kernel.run_intermittent(
                    workload.inputs, **_run_args(spec, trace, energy)
                )
            results.append(
                _finalize_sample(
                    spec, run, workload, reference, trace, energy,
                    "interp" if fallback else "replay", fallback,
                )
            )
        return results

    return [run for group in groups for run in _deadlined(replay, group)]


def _sample_run_to_dict(run: SampleRun) -> dict:
    """JSON encoding of one sample; floats survive the round trip
    bit-exactly (``json`` uses ``repr``-shortest encoding)."""
    return {
        "wall_ms": run.wall_ms,
        "on_ms": run.on_ms,
        "active_cycles": run.active_cycles,
        "outages": run.outages,
        "skim_taken": run.skim_taken,
        "error": run.error,
        "accuracy": run.accuracy,
        "metrics": run.metrics,
        "ledger": run.ledger,
    }


def _sample_run_from_dict(data: dict) -> SampleRun:
    """Inverse of :func:`_sample_run_to_dict`."""
    return SampleRun(
        wall_ms=data["wall_ms"],
        on_ms=data["on_ms"],
        active_cycles=data["active_cycles"],
        outages=data["outages"],
        skim_taken=data["skim_taken"],
        error=data["error"],
        accuracy=data.get("accuracy"),
        metrics=data.get("metrics"),
        ledger=data.get("ledger"),
    )


def _store_payload(
    result: "BenchmarkResult",
    fingerprint: str,
    scale: Optional[str],
    setup: ExperimentSetup,
) -> dict:
    """The store value for one finished configuration.

    Full sample list plus the merged metrics/ledger rollups and a small
    human-facing summary, so ``repro report --live`` and the service's
    cached responses never re-derive anything."""
    ledger = result.merged_ledger()
    config = {
        "workload": result.name,
        "scale": scale,
        "mode": result.mode,
        "bits": result.bits,
        "runtime": result.runtime,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "samples": len(result.runs),
        "summary": {
            "median_wall_ms": result.median_wall_ms,
            "median_error": result.median_error,
            "median_accuracy": result.median_accuracy,
            "skim_rate": result.skim_rate,
        },
    }
    return result_payload(
        fingerprint,
        config,
        [_sample_run_to_dict(run) for run in result.runs],
        metrics=result.merged_metrics().to_dict(),
        ledger=ledger,
    )


def _store_lookup(
    store: Optional[ResultStore], fingerprint: Optional[str]
) -> Optional[List[SampleRun]]:
    """Cached samples for a fingerprint, or ``None`` (store off / miss).

    A torn or foreign entry is a miss, never an error: the
    configuration simply re-runs."""
    if store is None or fingerprint is None:
        return None
    payload = store.load(fingerprint)
    if payload is None:
        return None
    try:
        return [_sample_run_from_dict(entry) for entry in payload["runs"]]
    except (KeyError, TypeError):
        return None


def _sample_specs(
    workload: Workload,
    mode: str,
    bits: Optional[int],
    runtime: str,
    setup: ExperimentSetup,
    environment: Environment,
    reference: Optional[Sequence[float]],
) -> List[SampleSpec]:
    """The trace x invocation grid for one configuration, in grid order.

    Raises ``ValueError`` for a workload without a ``scale``: samples
    rebuild their workload by name, so it must come from
    :func:`~repro.workloads.make_workload`."""
    if workload.scale is None:
        raise ValueError(
            f"workload {workload.name!r} has no scale; build it with "
            "repro.workloads.make_workload so samples can rebuild it by name"
        )
    return [
        SampleSpec(
            workload_name=workload.name,
            scale=workload.scale,
            mode=mode,
            bits=bits,
            runtime=runtime,
            trace_index=trace_index,
            invocation=invocation,
            capacitor_f=environment.capacitor_f,
            watchdog_cycles=environment.watchdog_cycles,
            trace_count=setup.trace_count,
            trace_duration_ms=setup.trace_duration_ms,
            trace_seed=setup.trace_seed,
            max_wall_ms=setup.max_wall_ms,
            reference=None if reference is None else tuple(reference),
        )
        for trace_index in range(setup.trace_count)
        for invocation in range(setup.invocations)
    ]


def _map_samples(specs: List[SampleSpec], jobs: int) -> List[SampleRun]:
    """Ordered, self-healing map over the grid; returns samples in
    grid order.

    The unit of work is one configuration (:func:`_run_config_group`:
    its samples share one commit-log walk), so ``REPRO_JOBS`` shards by
    configuration. Serial when ``jobs <= 1`` or there is a single unit.
    Otherwise each unit is submitted as its own future and collected in
    submission order, so the merged result list is independent of worker
    scheduling — and a failure is scoped to its unit, not the grid: a
    unit whose worker dies (OOM killer, segfaulting interpreter,
    ``BrokenProcessPool``) or errors in flight is retried *serially in
    the parent* after the pool drains. One aggregated stderr warning
    reports everything that was retried. Only a unit that also fails
    its serial retry propagates — a deterministic failure (e.g.
    :class:`~repro.errors.IncompleteRun`) still surfaces as the typed
    error it is; an unlucky worker crash never kills an hours-long
    grid."""
    units = [
        list(group)
        for _key, group in itertools.groupby(
            specs, key=lambda spec: (_kernel_key(spec), spec.runtime)
        )
    ]
    if jobs <= 1 or len(units) <= 1:
        return [run for unit in units for run in _run_config_group(unit)]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    timeout = experiment_sample_timeout()

    results: List[Optional[List[SampleRun]]] = [None] * len(units)
    failures: List[Tuple[int, str]] = []
    wedged = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(units)))
    try:
        futures = [pool.submit(_run_config_group, unit) for unit in units]
        for index, future in enumerate(futures):
            # Hard per-future backstop: the in-worker deadline is
            # cooperative, so give each sample several budgets of slack
            # before declaring the worker wedged and falling back to
            # the serial retry.
            hard_cap = (
                None if timeout is None
                else (4.0 * timeout + 30.0) * len(units[index])
            )
            try:
                results[index] = future.result(timeout=hard_cap)
            except BrokenProcessPool:
                future.cancel()
                failures.append((index, "worker process died"))
            except FutureTimeout:
                future.cancel()
                wedged = True
                failures.append((index, "worker exceeded the hard timeout"))
            except Exception as exc:  # noqa: BLE001 — every unit retries
                failures.append((index, f"{type(exc).__name__}: {exc}"))
    finally:
        # A wedged worker would block a waiting shutdown forever; leave
        # it to finish (or die) on its own and reclaim the grid now.
        pool.shutdown(wait=not wedged, cancel_futures=True)
    if failures:
        preview = "; ".join(
            f"config group {index}: {reason}" for index, reason in failures[:3]
        )
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        print(
            f"repro: retrying {len(failures)}/{len(units)} config groups "
            f"serially after worker failures [{preview}{more}]",
            file=sys.stderr,
        )
        for index, _reason in failures:
            results[index] = _run_config_group(units[index])
    return [run for unit_runs in results for run in unit_runs]


def _finish_result(result: BenchmarkResult, setup: ExperimentSetup) -> BenchmarkResult:
    """Observability hooks every finished configuration passes through.

    Feeds the active run manifest (no-op when none is open) and, when
    ``REPRO_METRICS=<path>`` is set, appends one JSONL rollup line for
    the configuration. Runs in the parent process only: worker metrics
    arrived inside the :class:`SampleRun` objects. The configuration's
    ``engine`` is ``"replay"``, the engine of every grid; samples that
    fell back show in the rollup's ``engine.*`` counters.
    """
    metrics = result.merged_metrics()
    engine = "replay"
    setup_info = {
        "scale": setup.scale,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "trace_seed": setup.trace_seed,
    }
    record_result(
        result.name, result.mode, result.bits, result.runtime, engine,
        setup=setup_info, samples=len(result.runs),
        metrics=metrics.to_dict(),
    )
    path = os.environ.get(METRICS_ENV, "").strip()
    if path:
        line = {
            "workload": result.name,
            "mode": result.mode,
            "bits": result.bits,
            "runtime": result.runtime,
            "engine": engine,
            "samples": len(result.runs),
            "metrics": metrics.to_dict(),
        }
        with open(path, "a", encoding="utf-8") as file:
            file.write(json.dumps(line, separators=(",", ":")) + "\n")
    ledger_path = os.environ.get(LEDGER_ENV, "").strip()
    if ledger_path:
        ledger = result.merged_ledger()
        if ledger is not None:
            line = {
                "workload": result.name,
                "mode": result.mode,
                "bits": result.bits,
                "runtime": result.runtime,
                "engine": engine,
                "samples": len(result.runs),
                "ledger": ledger,
            }
            with open(ledger_path, "a", encoding="utf-8") as file:
                file.write(json.dumps(line, separators=(",", ":")) + "\n")
    return result


def _fingerprint_reference(
    workload: Workload, reference: Optional[Sequence[float]]
) -> Optional[Sequence[float]]:
    """``None`` when ``reference`` is the workload's own decoded output.

    Callers that spell out the default reference explicitly (the grid
    bench does) must share store fingerprints with callers that pass
    nothing (the service does) — only a genuine override changes the
    samples, so only a genuine override feeds the digest."""
    if reference is None:
        return None
    if list(reference) == list(workload.decoded_reference()):
        return None
    return reference


def run_benchmark(
    workload: Workload,
    mode: str,
    bits: Optional[int],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment] = None,
    reference: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
) -> BenchmarkResult:
    """Run one configuration over all traces x invocations.

    ``jobs`` defaults to :func:`experiment_jobs` (the ``REPRO_JOBS``
    environment variable). The workload must come from
    :func:`~repro.workloads.make_workload`: samples rebuild it by name,
    in this process or in pool workers.
    """
    if environment is None:
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
    if reference is None:
        reference = workload.decoded_reference()
    jobs = experiment_jobs() if jobs is None else max(1, jobs)

    result = BenchmarkResult(workload.name, mode, bits, runtime)
    store = experiment_store()
    fingerprint = None
    if store is not None:
        fingerprint = config_fingerprint(
            workload.name, workload.scale, mode, bits, runtime,
            setup, environment, _fingerprint_reference(workload, reference),
        )
        hit = _store_lookup(store, fingerprint)
        if hit is not None:
            result.runs.extend(hit)
            return _finish_result(result, setup)
    specs = _sample_specs(workload, mode, bits, runtime, setup, environment, reference)
    result.runs.extend(_map_samples(specs, jobs))
    if store is not None:
        store.put(
            fingerprint,
            _store_payload(result, fingerprint, workload.scale, setup),
        )
    return _finish_result(result, setup)


def run_benchmark_suite(
    workload: Workload,
    configs: Sequence[Tuple[str, Optional[int]]],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment] = None,
    reference: Optional[Sequence[float]] = None,
) -> List[BenchmarkResult]:
    """Run several (mode, bits) configurations of one workload.

    This is the fan-out point the figure experiments share: with
    ``REPRO_JOBS`` > 1 the *combined* configs x traces x invocations
    grid feeds one process pool, so small per-config grids still fill
    every worker. Results come back per config, samples in grid order —
    identical to calling :func:`run_benchmark` per config serially.
    """
    if environment is None:
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
    if reference is None:
        reference = workload.decoded_reference()
    jobs = experiment_jobs()

    if jobs <= 1:
        return [
            run_benchmark(workload, mode, bits, runtime, setup, environment,
                          reference, jobs=1)
            for mode, bits in configs
        ]

    # Per-config caching: configurations the content-addressed store
    # already holds are excluded from the pooled grid entirely, so a
    # restarted (or re-submitted) run only pays for the work it
    # actually lost.
    store = experiment_store()
    fingerprints: Dict[int, str] = {}
    if store is not None:
        fp_reference = _fingerprint_reference(workload, reference)
        for index, (mode, bits) in enumerate(configs):
            fingerprints[index] = config_fingerprint(
                workload.name, workload.scale, mode, bits, runtime,
                setup, environment, fp_reference,
            )
    cached: Dict[int, List[SampleRun]] = {}
    for index, (mode, bits) in enumerate(configs):
        hit = _store_lookup(store, fingerprints.get(index))
        if hit is not None:
            cached[index] = hit

    spec_lists: List[List[SampleSpec]] = []
    for index, (mode, bits) in enumerate(configs):
        if index in cached:
            continue
        spec_lists.append(
            _sample_specs(workload, mode, bits, runtime, setup, environment, reference)
        )
    if not spec_lists:
        runs = []  # fully warm grid: nothing to execute, nothing to pool
    else:
        runs = _map_samples([spec for group in spec_lists for spec in group], jobs)

    per_config = setup.trace_count * setup.invocations
    results = []
    cursor = 0
    for index, (mode, bits) in enumerate(configs):
        result = BenchmarkResult(workload.name, mode, bits, runtime)
        if index in cached:
            result.runs.extend(cached[index])
        else:
            result.runs.extend(runs[cursor:cursor + per_config])
            cursor += per_config
            if store is not None:
                store.put(
                    fingerprints[index],
                    _store_payload(result, fingerprints[index], workload.scale, setup),
                )
        results.append(_finish_result(result, setup))
    return results


def median_speedup(baseline: BenchmarkResult, wn: BenchmarkResult) -> float:
    """Median per-run speedup in wall-clock time to finish one input."""
    pairs = zip(baseline.runs, wn.runs)
    return statistics.median(b.wall_ms / max(w.wall_ms, 1) for b, w in pairs)


def first_skim_cycles(kernel: AnytimeKernel, inputs: Dict[str, List[int]]) -> Tuple[int, int]:
    """Cycles until the first skim point is armed, and total cycles.

    This is the 'earliest available output' moment in the design-space
    studies (Figures 13 and 15)."""
    cpu = kernel.make_cpu(inputs)
    first: List[int] = []

    def hook(target: int) -> None:
        if not first:
            first.append(cpu.stats.cycles + 1)

    cpu.skim_hook = hook
    total = cpu.run()
    return (first[0] if first else total), total
