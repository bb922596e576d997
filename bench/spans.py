"""Per-layer wall-clock spans, recorded from outside the program.

:meth:`SpanRecorder.install` wraps the public functions of each layer where their
callers look them up (``repro.service.server.prepare``, not
``repro.service.jobs.prepare``) and records one span per call: name,
parent, start and end. Spans stay in memory until the benchmark (or
``traced_serve.py``) writes them out at exit. Parents follow
``contextvars``, and the service's job pool is swapped for one that
carries the submitting coroutine's context into its worker threads, so
``prepare``/``compute`` spans nest under the ``submit`` that caused them.

:func:`layer_table` turns spans into per-call-site statistics: calls,
busy time, self time (a span's duration minus the part of it its
children cover), p50/p99 and a few work counts read off the results.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from stats import percentile

#: (span name, module, attribute) of every wrapped call. A name can wrap
#: several call sites (the service and the offline harness import the
#: calibration helpers separately).
TARGETS = (
    ("service.submit", "repro.service.server", "ExperimentService.submit"),
    ("service.prepare", "repro.service.server", "prepare"),
    ("service.compute", "repro.service.server", "compute"),
    ("journal.accept", "repro.service.journal", "JobJournal.accept"),
    ("journal.done", "repro.service.journal", "JobJournal.done"),
    ("store.fingerprint", "repro.service.jobs", "config_fingerprint"),
    ("store.fingerprint", "repro.experiments.common", "config_fingerprint"),
    ("store.load", "repro.store.cas", "ResultStore.load"),
    ("store.put", "repro.store.cas", "ResultStore.put"),
    ("experiments.precise_cycles", "repro.service.jobs", "measure_precise_cycles"),
    ("experiments.precise_cycles", "repro.experiments.common", "measure_precise_cycles"),
    ("experiments.calibrate", "repro.service.jobs", "calibrate_environment"),
    ("experiments.calibrate", "repro.experiments.common", "calibrate_environment"),
    ("experiments.suite", "repro.experiments.common", "run_benchmark_suite"),
    ("compiler.build_anytime", "repro.experiments.common", "build_anytime"),
    ("sim.kernel_run", "repro.core.anytime", "AnytimeKernel.run"),
    ("sim.record_run", "repro.experiments.common", "record_run"),
    ("runtime.batch_group", "repro.runtime.batch_executor", "run_batch_group"),
    ("runtime.live", "repro.core.anytime", "AnytimeKernel.run_intermittent"),
)

#: Span names whose latency distribution is reported (p50/p99); the
#: rest report calls, busy and self time only.
TIMED = (
    "service.submit", "service.prepare", "service.compute", "journal.accept",
    "store.load", "store.put", "experiments.suite", "sim.record_run",
    "runtime.batch_group", "runtime.live",
)


def _work(name: str, result) -> Optional[dict]:
    """Work counts read off one call's result."""
    if name == "store.load":
        return {"hit": int(result is not None)}
    if name == "sim.kernel_run":
        return {"instructions": result.instructions}
    if name == "sim.record_run":
        return {"instructions": result.length, "replayable": int(result.replayable)}
    if name == "runtime.batch_group":
        return {"lanes": len(result), "demoted": sum(run is None for run in result)}
    if name == "runtime.live":
        return {"cycles": result.result.active_cycles}
    return None


class SpanRecorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=0
        )
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn):
        current, ids, spans = self._current, self._ids, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = next(ids), current.get()
            token = current.set(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                current.reset(token)
            spans.append([span_id, parent, name, start, end,
                          _work(name, result)])
            return result

        return wrapper

    def _wrap_async(self, name: str, fn):
        current, ids, spans = self._current, self._ids, self.spans

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id, parent = next(ids), current.get()
            token = current.set(span_id)
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append([span_id, parent, name, start,
                              time.perf_counter_ns(), None])
                current.reset(token)

        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for name, module_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrap = (self._wrap_async if name == "service.submit" else self._wrap)
            setattr(owner, leaf, wrap(name, original))
            self._undo.append(functools.partial(setattr, owner, leaf, original))
        server = importlib.import_module("repro.service.server")
        self._undo.append(functools.partial(
            setattr, server, "ThreadPoolExecutor", server.ThreadPoolExecutor
        ))
        server.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as file:
            json.dump(self.spans, file, separators=(",", ":"))


class _ContextPool(ThreadPoolExecutor):
    """A thread pool that runs each task in its submitter's context
    (what ``asyncio.to_thread`` does), so spans keep their parents."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _self_ns(span: list, children: List[list]) -> int:
    """Duration minus the union of the children's intervals inside it."""
    start, end = span[3], span[4]
    covered = 0
    cursor = start
    for child in sorted(children, key=lambda c: c[3]):
        lo, hi = max(child[3], cursor), min(child[4], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def layer_table(span_sets: List[List[list]]) -> Dict[str, dict]:
    """Per-name statistics over the spans of one or more processes
    (span ids are only unique within a process, hence the sets)."""
    durations: Dict[str, List[float]] = {}
    selfs: Dict[str, List[float]] = {}
    work: Dict[str, Dict[str, int]] = {}
    for spans in span_sets:
        children: Dict[int, List[list]] = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)
        for span in spans:
            name = span[2]
            durations.setdefault(name, []).append((span[4] - span[3]) / 1e9)
            selfs.setdefault(name, []).append(
                _self_ns(span, children.get(span[0], [])) / 1e9
            )
            if span[5]:
                totals = work.setdefault(name, {})
                for key, value in span[5].items():
                    totals[key] = totals.get(key, 0) + value
    table = {}
    for name, values in durations.items():
        ordered = sorted(values)
        table[name] = {
            "calls": len(values),
            "busy_s": sum(values),
            "self_s": sum(selfs[name]),
            "p50_ms": percentile(ordered, 50) * 1e3,
            "p99_ms": percentile(ordered, 99) * 1e3,
            "self_p99_ms": percentile(sorted(selfs[name]), 99) * 1e3,
            "work": work.get(name, {}),
        }
    return table
