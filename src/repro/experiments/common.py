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
reports medians; :func:`run_benchmark_suite`, the harness's one grid
path, mirrors that (:func:`run_benchmark` is its one-configuration
call).

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
task (a single configuration always runs in-process); results are
merged in grid order, so the output is identical to the serial run.

Caching: with ``REPRO_STORE=<dir>`` every finished configuration is
persisted to (and served from) the global content-addressed result
store (:mod:`repro.store`), keyed by the sha256 of its canonical config
description — shared across runs, figure experiments, ``bench --grid``
and the experiment service. The key embeds the package/schema version
so stale caches self-invalidate. ``REPRO_FAULTS`` disables the store by
design. A serial grid stores each configuration before it computes the
next; a pooled grid stores every configuration when the pool returns.
"""

from __future__ import annotations

import itertools
import json
import math
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
        """The ``trace_count`` paper power traces this setup names."""
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
        """A fresh storage capacitor of this environment's size, charged
        to 3.0 V."""
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
        """Median wall-clock time to finish one input, in ms."""
        return statistics.median(r.wall_ms for r in self.runs)

    @property
    def median_error(self) -> float:
        """Median NRMSE against the reference output, in percent."""
        return statistics.median(r.error for r in self.runs)

    @property
    def median_accuracy(self) -> Optional[float]:
        """Median top-1 accuracy, or None for NRMSE-only workloads."""
        scores = [r.accuracy for r in self.runs if r.accuracy is not None]
        return statistics.median(scores) if scores else None

    @property
    def skim_rate(self) -> float:
        """Fraction of samples that finished at a skim point."""
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

    Read off the precise build's commit log in its
    :func:`worker_build` entry, the one the precise configuration's
    replay groups reuse, so every caller in a process shares one
    recording. The build runs on the interpreter when it cannot be
    recorded, or for a workload without a ``scale`` (not rebuildable by
    name, so not cached)."""
    if workload.scale is None:
        kernel = build_anytime(workload, "precise")
    else:
        build = worker_build(workload, "precise", recorded=True)
        record = build.record
        if record.replayable:
            return record.cum_cost[-1]
        kernel = build.kernel
    return kernel.run(workload.inputs).cycles


#: Switches already warned about in this process: a run reads each
#: switch many times (once per configuration in a figure grid) but warns
#: once per switch. Pool workers inherit the environment but are only
#: spawned when ``REPRO_JOBS`` parsed.
_warned_switches = set()


def _read_switch(name: str, cast, want: str, fallback: str,
                 positive: bool = True):
    """``cast`` of the stripped environment variable ``name``, or
    ``None`` when it is unset or invalid: unparseable, a non-finite
    float, or ``<= 0`` when ``positive``. An invalid value degrades to
    "switch off" with one stderr warning per switch per process, never
    a crash."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = cast(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(raw)
        if positive and value <= 0:
            raise ValueError(raw)
        return value
    except ValueError:
        if name not in _warned_switches:
            _warned_switches.add(name)
            print(
                f"repro: ignoring invalid {name}={raw!r} ({want}); {fallback}",
                file=sys.stderr,
            )
        return None


def experiment_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial).

    An unparseable value — and a parseable but meaningless one like
    ``0`` or a negative count — falls back to serial with a single
    stderr warning per process (not one per benchmark)."""
    jobs = _read_switch(
        "REPRO_JOBS", int, "want a positive integer", "running serially"
    )
    return 1 if jobs is None else jobs


def experiment_sample_timeout() -> Optional[float]:
    """Per-sample wall-clock budget in seconds from
    ``REPRO_SAMPLE_TIMEOUT`` (``None`` = no timeout).

    The budget is enforced *cooperatively*: the harness arms the
    executor deadline (:func:`~repro.runtime.executor.set_sample_deadline`)
    around each sample on either engine, so a pathological sample
    raises a typed
    :class:`~repro.errors.SampleTimeout` inside its own process instead
    of hanging a ``REPRO_JOBS`` worker forever."""
    return _read_switch(
        "REPRO_SAMPLE_TIMEOUT", float, "want a positive number of seconds",
        "no sample timeout",
    )


def experiment_faults() -> Optional[int]:
    """Chaos seed from ``REPRO_FAULTS`` (``None`` = faults off).

    When set, every grid sample swaps its paper power trace for a
    seeded adversarial trace from the fault engine's fuzzer
    (burst-outage or knife-edge, alternating per sample), so any
    experiment — including a full figure grid — can be re-run under
    hostile power without touching its code. The swap is a pure
    function of (seed, trace index, invocation): deterministic and
    identical across serial and ``REPRO_JOBS`` runs."""
    return _read_switch(
        "REPRO_FAULTS", int, "want an integer seed", "faults disabled",
        positive=False,
    )


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


#: Byte budget of :data:`_worker_cache`. Each reuse path's working set
#: in the cache's accounting, which tracemalloc confirms within 10%
#: (every path in one process, nothing evicted, default scale):
#:
#: - bench's warm-hits plan (seed 41): 8.2 MiB;
#: - bench's mixed-open plan (seed 41): 10.7 MiB;
#: - bench's grid-cli plan (seed 41): 14.7 MiB;
#: - ``run fig10`` and ``fig10-nn``, 3 traces x 1 invocation: 15.0 and
#:   19.6 MiB; on the paper protocol (9 x 3): 15.2 and 20.0 MiB;
#: - the four ``ablation-*`` runs, 3 x 1: at most 0.9 MiB.
#:
#: 32 MiB holds the largest, fig10-nn's, with 60% to spare, while a
#: stream of configurations that no later job asks for (cold-configs,
#: 78 MiB unbounded) keeps at most 32. A paper-scale record can exceed
#: the budget by itself: MatMul precise and swp-8 take 19.6 and 39.5
#: MiB, Conv2d swp-4 445 MiB. Such an entry is dropped as soon as it is
#: accounted, evicting nothing else, and is re-recorded when asked for
#: again (0.06-0.10 s for MatMul on the native recorder).
CACHE_BUDGET_BYTES = 32 << 20

#: Retained bytes of a compiled kernel per program instruction, with the
#: decoded view its program caches after its first run: tracemalloc
#: gave 377-501 B on the builds ``_HANDLER_BYTES`` was measured on.
_KERNEL_BYTES_PER_INSTRUCTION = 450


class _WorkerCache:
    """Thread-safe LRU of rebuildable per-process state, bounded in bytes.

    Values are :class:`_Compiled` kernels with their commit logs, and
    :class:`_TraceSet` trace sets; each reports its size (``nbytes``)
    when it is added or re-accounted. Evicting one only costs a rebuild
    (re-compile, re-record, re-synthesize from the seed), never a
    different result. The total is brought back under
    :data:`CACHE_BUDGET_BYTES` by evicting the least recently used
    entries. An entry that alone exceeds the budget is dropped by
    itself, so it never flushes the rest; the caller that holds it
    keeps it whole."""

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
            self._evict(key)
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
            self._evict(key)

    def _evict(self, key: tuple) -> None:
        """Bring the total under the budget after ``key`` was added or
        grew: drop ``key`` alone if it exceeds the budget by itself,
        else the least recently used entries."""
        if self._entries[key][1] > CACHE_BUDGET_BYTES:
            self.bytes -= self._entries.pop(key)[1]
            self.evictions += 1
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

    def __init__(self, kernel: AnytimeKernel) -> None:
        self.kernel = kernel
        self.record: Optional[ReplayRecord] = None

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


# Per-process build state, owned here for every layer of the process
# (grids, pool workers, the service, the chaos campaign): the expensive
# rebuilds happen once per process. Workloads and their reference
# outputs (at most one each per workload and scale) stay in plain dicts;
# kernels, commit logs and trace sets share the byte-budgeted cache.
_worker_workloads: Dict[Tuple[str, str], Workload] = {}
_worker_references: Dict[Tuple[str, str], List[float]] = {}
_worker_cache = _WorkerCache()


def worker_workload(name: str, scale: str) -> Workload:
    """This process's workload ``name`` at ``scale``, built on first
    need and shared by every caller."""
    key = (name, scale)
    workload = _worker_workloads.get(key)
    if workload is None:
        from ..workloads import make_workload

        # Of two threads that build at once, the first to store wins.
        workload = _worker_workloads.setdefault(key, make_workload(name, scale))
    return workload


def worker_build(workload: Workload, mode: str, bits: Optional[int] = None,
                 recorded: bool = False) -> _Compiled:
    """The :data:`_worker_cache` entry of one (workload, scale, mode,
    bits) configuration: its kernel, compiled on first need, and with
    ``recorded`` its commit log, recorded on first need. An evicted
    entry is rebuilt, never different; one evicted while a caller holds
    it stays whole, so a kernel and its record always belong together.
    ``workload`` must have a ``scale`` (any instance of that name and
    scale builds the same configuration)."""
    key = (workload.name, workload.scale, mode, bits)
    build = _worker_cache.get(key)
    if build is None:
        build = _worker_cache.add(key, _Compiled(build_anytime(workload, mode, bits)))
    if recorded and build.record is None:
        build.record = record = record_run(build.kernel, workload.inputs)
        _worker_cache.reaccount(key)
        if TRACER.enabled:
            TRACER.emit(
                "record_run", workload=workload.name, mode=mode, bits=bits,
                replayable=record.replayable,
                reason=record.reason or None, length=record.length,
                recorder=record.recorder,
            )
    return build


def worker_reference(workload: Workload) -> List[float]:
    """The workload's reference output: the precise build's decoded
    outputs, read off its commit log (:func:`worker_build`, which
    calibration fills anyway) instead of evaluating the IR, and
    memoized per (name, scale). Returns a copy.

    A workload without a ``scale``, or one whose precise record is not
    replayable, falls back to :meth:`Workload.decoded_reference`, the
    IR's answer. Both agree wherever both exist
    (``tests/test_lean_log.py``)."""
    if workload.scale is None:
        return workload.decoded_reference()
    key = (workload.name, workload.scale)
    reference = _worker_references.get(key)
    if reference is None:
        record = worker_build(workload, "precise", recorded=True).record
        if record.replayable:
            reference = workload.decode(record.final_outputs)
        else:
            reference = workload.decoded_reference()
        reference = _worker_references.setdefault(key, reference)
    return list(reference)


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


def _sample_inputs(spec: SampleSpec) -> Tuple[Workload, Sequence[float]]:
    """``(workload, reference)`` for one spec: the process's workload
    and the spec's reference, else the workload's own
    :func:`worker_reference`."""
    workload = worker_workload(spec.workload_name, spec.scale)
    reference = spec.reference
    if reference is None:
        reference = worker_reference(workload)
    return workload, reference


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
    workload, reference = _sample_inputs(spec)
    kernel = worker_build(workload, spec.mode, spec.bits).kernel
    trace = _sample_trace(spec)
    if TRACER.enabled:
        _emit_sample_start(spec)
    energy = runtime_row(spec.runtime).energy_model()
    run = kernel.run_intermittent(
        workload.inputs, **_run_args(spec, trace, energy)
    )
    return _finalize_sample(
        spec, run, workload, reference, trace, energy, "interp", False
    )


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
        workload, reference = _sample_inputs(first)
        traces = [_sample_trace(spec) for spec in group]
        if TRACER.enabled:
            _emit_sample_start(first)
        build = worker_build(workload, first.mode, first.bits, recorded=True)
        kernel, record = build.kernel, build.record
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
        # The walk grew the record's keyframe deltas, materialization
        # state and WAR index.
        _worker_cache.reaccount(_kernel_key(first))
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
        # vars(), not dataclasses.asdict, which deep-copies every
        # sample's metrics and ledger: 5.8 ms against 4 us for a
        # 27-sample entry on a 2-vCPU Xeon host.
        [vars(run) for run in result.runs],
        metrics=result.merged_metrics().to_dict(),
        ledger=ledger,
    )


def _store_lookup(store: ResultStore, fingerprint: str) -> Optional[List[SampleRun]]:
    """Cached samples for a fingerprint, or ``None`` on a miss.

    A torn or foreign entry is a miss, never an error: the
    configuration simply re-runs."""
    payload = store.load(fingerprint)
    if payload is None:
        return None
    try:
        return [SampleRun(**entry) for entry in payload["runs"]]
    except TypeError:  # an entry that is not a mapping of SampleRun fields
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
    ``REPRO_METRICS=<path>`` or ``REPRO_LEDGER=<path>`` is set, appends
    one JSONL rollup line for the configuration to each armed sink.
    Runs in the parent process only: worker metrics arrived inside the
    :class:`SampleRun` objects. The configuration's ``engine`` is
    ``"replay"``, the engine of every grid; samples that fell back show
    in the rollup's ``engine.*`` counters.
    """
    metrics = result.merged_metrics().to_dict()
    engine = "replay"
    setup_info = {
        "scale": setup.scale,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "trace_seed": setup.trace_seed,
    }
    record_result(
        result.name, result.mode, result.bits, result.runtime, engine,
        setup=setup_info, samples=len(result.runs), metrics=metrics,
    )
    line = {
        "workload": result.name,
        "mode": result.mode,
        "bits": result.bits,
        "runtime": result.runtime,
        "engine": engine,
        "samples": len(result.runs),
    }
    # Each rollup is built only when its sink is armed.
    for env, key, rollup in (
        (METRICS_ENV, "metrics", lambda: metrics),
        (LEDGER_ENV, "ledger", result.merged_ledger),
    ):
        path = os.environ.get(env, "").strip()
        value = rollup() if path else None
        if value is not None:
            with open(path, "a", encoding="utf-8") as file:
                file.write(
                    json.dumps({**line, key: value}, separators=(",", ":")) + "\n"
                )
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
    if list(reference) == worker_reference(workload):
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
) -> BenchmarkResult:
    """Run one configuration over all traces x invocations: a
    one-configuration :func:`run_benchmark_suite`, so it runs in-process
    whatever ``REPRO_JOBS`` says."""
    [result] = run_benchmark_suite(
        workload, [(mode, bits)], runtime, setup, environment, reference
    )
    return result


def run_benchmark_suite(
    workload: Workload,
    configs: Sequence[Tuple[str, Optional[int]]],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment] = None,
    reference: Optional[Sequence[float]] = None,
) -> List[BenchmarkResult]:
    """Run several (mode, bits) configurations of one workload: the
    harness's one grid path.

    With ``REPRO_STORE`` set, each configuration is looked up in the
    store first; the misses are computed through :func:`_map_samples`
    and stored. With ``REPRO_JOBS`` > 1 every miss goes to one process
    pool, so small per-config grids still fill every worker, and each is
    stored when the pool returns. Serially, each miss is stored before
    the next one is computed, so an interrupted grid keeps every
    configuration it finished. Results come back per config, samples in
    grid order, identical for every job count. The workload must come
    from :func:`~repro.workloads.make_workload`: samples rebuild it by
    name, in this process or in pool workers.
    """
    if environment is None:
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
    if reference is None:
        reference = worker_reference(workload)
    jobs = experiment_jobs()
    store = experiment_store()
    fp_reference = (
        None if store is None else _fingerprint_reference(workload, reference)
    )

    results: List[BenchmarkResult] = []
    misses: List[Tuple[BenchmarkResult, Optional[str]]] = []
    for mode, bits in configs:
        result = BenchmarkResult(workload.name, mode, bits, runtime)
        results.append(result)
        fingerprint = None
        if store is not None:
            fingerprint = config_fingerprint(
                workload.name, workload.scale, mode, bits, runtime,
                setup, environment, fp_reference,
            )
            hit = _store_lookup(store, fingerprint)
            if hit is not None:
                result.runs.extend(hit)
                continue
        misses.append((result, fingerprint))

    per_config = setup.trace_count * setup.invocations
    batch = len(misses) if jobs > 1 else 1
    for start in range(0, len(misses), max(batch, 1)):
        chunk = misses[start:start + batch]
        specs = [
            spec
            for result, _fingerprint in chunk
            for spec in _sample_specs(
                workload, result.mode, result.bits, runtime, setup,
                environment, reference,
            )
        ]
        runs = iter(_map_samples(specs, jobs))
        for result, fingerprint in chunk:
            result.runs.extend(itertools.islice(runs, per_config))
            if store is not None:
                store.put(
                    fingerprint,
                    _store_payload(result, fingerprint, workload.scale, setup),
                )
    return [_finish_result(result, setup) for result in results]


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
    with cpu:
        total = cpu.run()
    return (first[0] if first else total), total
