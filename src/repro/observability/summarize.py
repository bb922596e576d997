"""Trace summarizer: turn a ``REPRO_TRACE`` JSONL file back into sense.

``python -m repro trace summarize <file>`` reports, for a recorded
trace: total event counts by type, the sample population (per engine,
completed vs skimmed), every replay-fallback reason with its count, and
compact per-sample outage/skim timelines. The event schema it consumes
is documented in ``docs/OBSERVABILITY.md``.

Attribution model: events carry the emitting ``pid``; within one pid
the stream is sequential, so each ``sample_start`` opens a sample that
owns every following event until its ``sample_end``. Events emitted
outside any sample (e.g. from ad-hoc API use) are tallied as orphans
rather than dropped, except ``record_run``: a calibration records the
precise build before any sample starts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SampleTrace:
    """Everything the trace recorded about one grid sample."""

    #: Identity fields copied from the ``sample_start`` event.
    workload: str = "?"
    scale: str = "?"
    mode: str = "?"
    bits: Optional[int] = None
    runtime: str = "?"
    trace_index: int = -1
    invocation: int = -1
    pid: int = 0
    #: Filled from ``sample_end`` (None if the trace was truncated).
    engine: Optional[str] = None
    completed: Optional[bool] = None
    skim_taken: Optional[bool] = None
    wall_ms: Optional[int] = None
    outages: int = 0
    skim_arms: int = 0
    skim_takes: int = 0
    checkpoints: int = 0
    fallback_reason: Optional[str] = None
    #: (tick, label) milestones for the timeline rendering. Events that
    #: carry no tick of their own (skim arms retire inside the CPU, away
    #: from the supply) are stamped with the last supply tick seen.
    timeline: List[tuple] = field(default_factory=list)

    @property
    def config(self) -> str:
        """Human-readable configuration label."""
        bits = "" if self.bits is None else f"{self.bits}"
        return f"{self.workload}/{self.mode}{bits}/{self.runtime}"

    def describe(self) -> str:
        """One compact timeline line for the CLI report."""
        status = "?" if self.completed is None else (
            "skim" if self.skim_taken else
            ("done" if self.completed else "incomplete")
        )
        head = (
            f"{self.config} t{self.trace_index} i{self.invocation} "
            f"[{self.engine or '?'}] {status}: "
            f"outages={self.outages} arms={self.skim_arms} "
            f"takes={self.skim_takes} ckpts={self.checkpoints} "
            f"wall={self.wall_ms}ms"
        )
        if self.fallback_reason:
            head += f" fallback={self.fallback_reason!r}"
        if self.timeline:
            shown = self.timeline[:8]
            marks = " ".join(f"{label}@{tick}" for tick, label in shown)
            if len(self.timeline) > len(shown):
                marks += f" …(+{len(self.timeline) - len(shown)})"
            head += f"\n      {marks}"
        return head


@dataclass
class TraceSummary:
    """Aggregate view of one trace file."""

    path: str
    total_events: int = 0
    event_counts: Counter = field(default_factory=Counter)
    pids: set = field(default_factory=set)
    samples: List[SampleTrace] = field(default_factory=list)
    fallback_reasons: Counter = field(default_factory=Counter)
    engines: Counter = field(default_factory=Counter)
    orphan_events: Counter = field(default_factory=Counter)
    skim_arms: int = 0
    skim_takes: int = 0
    outages: int = 0
    parse_errors: int = 0


def summarize_trace(path: str) -> TraceSummary:
    """Parse a JSONL trace into a :class:`TraceSummary`."""
    summary = TraceSummary(path=path)
    open_samples: Dict[int, SampleTrace] = {}
    last_tick: Dict[int, int] = {}

    with open(path, "r", encoding="utf-8") as file:
        for line in file:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                kind = event["t"]
            except (ValueError, KeyError):
                summary.parse_errors += 1
                continue
            pid = event.get("pid", 0)
            summary.total_events += 1
            summary.event_counts[kind] += 1
            summary.pids.add(pid)
            sample = open_samples.get(pid)

            if kind == "sample_start":
                sample = SampleTrace(
                    workload=event.get("workload", "?"),
                    scale=event.get("scale", "?"),
                    mode=event.get("mode", "?"),
                    bits=event.get("bits"),
                    runtime=event.get("runtime", "?"),
                    trace_index=event.get("trace", -1),
                    invocation=event.get("invocation", -1),
                    pid=pid,
                )
                open_samples[pid] = sample
                last_tick[pid] = 0
                continue

            tick = event.get("tick")
            if tick is not None:
                last_tick[pid] = tick

            if sample is None:
                if kind != "record_run":
                    summary.orphan_events[kind] += 1
                if kind == "skim_arm":
                    summary.skim_arms += event.get("count", 1)
                elif kind == "skim_take":
                    summary.skim_takes += 1
                elif kind == "outage":
                    summary.outages += 1
                elif kind == "replay_fallback":
                    summary.fallback_reasons[event.get("reason", "?")] += 1
                continue

            if kind == "sample_end":
                sample.engine = event.get("engine")
                sample.completed = event.get("completed")
                sample.skim_taken = event.get("skim_taken")
                sample.wall_ms = event.get("wall_ms")
                summary.engines[sample.engine or "?"] += 1
                summary.samples.append(sample)
                del open_samples[pid]
            elif kind == "outage":
                sample.outages += 1
                summary.outages += 1
                sample.timeline.append((tick, "outage"))
            elif kind == "restore":
                if event.get("skim"):
                    sample.timeline.append((tick, "skim_restore"))
            elif kind == "skim_arm":
                count = event.get("count", 1)
                sample.skim_arms += count
                summary.skim_arms += count
                sample.timeline.append((last_tick.get(pid, 0), "arm"))
            elif kind == "skim_take":
                sample.skim_takes += 1
                summary.skim_takes += 1
            elif kind == "checkpoint":
                sample.checkpoints += 1
            elif kind == "replay_fallback":
                reason = event.get("reason", "?")
                sample.fallback_reason = reason
                summary.fallback_reasons[reason] += 1

    # Truncated traces (process died mid-sample) still count partially.
    for sample in open_samples.values():
        summary.samples.append(sample)
    return summary


#: Version stamp of the ``summary_to_dict`` JSON layout. Bump only on
#: breaking changes; additive fields keep the number.
SUMMARY_SCHEMA = 1


def summary_to_dict(summary: TraceSummary, limit: Optional[int] = None) -> dict:
    """A :class:`TraceSummary` as a stable JSON-serializable dict.

    This is the machine half of ``python -m repro trace summarize``
    (the ``--json`` flag): CI scripts and the run dashboard consume it,
    so the key set is part of the tool's contract —
    ``tests/test_profiler_ledger.py`` pins it. ``limit`` caps the
    per-sample list (``None`` = all samples).
    """
    samples = summary.samples if limit is None else summary.samples[:limit]
    return {
        "schema": SUMMARY_SCHEMA,
        "path": summary.path,
        "total_events": summary.total_events,
        "parse_errors": summary.parse_errors,
        "pids": len(summary.pids),
        "event_counts": dict(sorted(summary.event_counts.items())),
        "samples": {
            "total": len(summary.samples),
            "completed": sum(1 for s in summary.samples if s.completed),
            "skimmed": sum(1 for s in summary.samples if s.skim_taken),
            "engines": dict(sorted(summary.engines.items())),
        },
        "skim": {"arms": summary.skim_arms, "takes": summary.skim_takes},
        "outages": summary.outages,
        "fallback_reasons": dict(summary.fallback_reasons.most_common()),
        "orphan_events": dict(sorted(summary.orphan_events.items())),
        "sample_list": [
            {
                "config": s.config,
                "workload": s.workload,
                "mode": s.mode,
                "bits": s.bits,
                "runtime": s.runtime,
                "trace": s.trace_index,
                "invocation": s.invocation,
                "engine": s.engine,
                "completed": s.completed,
                "skim_taken": s.skim_taken,
                "wall_ms": s.wall_ms,
                "outages": s.outages,
                "skim_arms": s.skim_arms,
                "skim_takes": s.skim_takes,
                "checkpoints": s.checkpoints,
                "fallback_reason": s.fallback_reason,
            }
            for s in samples
        ],
    }


def format_summary(summary: TraceSummary, limit: int = 12) -> str:
    """Render a :class:`TraceSummary` as the CLI report text."""
    lines = [
        f"trace {summary.path}: {summary.total_events} events "
        f"from {len(summary.pids)} process(es)"
    ]
    if summary.parse_errors:
        lines.append(f"  WARNING: {summary.parse_errors} unparseable line(s)")

    lines.append("event counts:")
    for kind, count in sorted(summary.event_counts.items()):
        lines.append(f"  {kind:<16} {count}")

    done = sum(1 for s in summary.samples if s.completed)
    skimmed = sum(1 for s in summary.samples if s.skim_taken)
    engines = ", ".join(
        f"{engine}={count}" for engine, count in sorted(summary.engines.items())
    ) or "none"
    lines.append(
        f"samples: {len(summary.samples)} "
        f"(completed {done}, via skim {skimmed}; engine: {engines})"
    )
    lines.append(
        f"skim: {summary.skim_arms} arms, {summary.skim_takes} takes; "
        f"outages: {summary.outages}"
    )

    if summary.fallback_reasons:
        lines.append("replay fallbacks:")
        for reason, count in summary.fallback_reasons.most_common():
            lines.append(f"  {count:>4}x {reason}")
    else:
        lines.append("replay fallbacks: none")

    if summary.orphan_events:
        orphans = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.orphan_events.items())
        )
        lines.append(f"events outside any sample: {orphans}")

    if summary.samples:
        lines.append(f"timelines (first {min(limit, len(summary.samples))}):")
        for sample in summary.samples[:limit]:
            lines.append("  " + sample.describe())
        if len(summary.samples) > limit:
            lines.append(f"  … {len(summary.samples) - limit} more")
    return "\n".join(lines)
