"""Tests for the observability layer: tracer, metrics, manifests, CLI.

Covers the tentpole acceptance criteria: the disabled path emits zero
events, an enabled run round-trips through the summarizer with every
replay fallback and skim arm accounted for, metrics merge identically
serial vs parallel, and the manifest stamps provenance.
"""

import json
import os

import pytest

from repro.experiments import (
    ExperimentSetup,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
)
from repro.experiments import common
from repro.observability import (
    Histogram,
    Metrics,
    TRACER,
    TraceSummary,
    active_manifest,
    begin_manifest,
    finish_manifest,
    format_summary,
    record_result,
    summarize_trace,
)
from repro.sim.replay import ReplayRecord
from repro.workloads import make_workload

TINY = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)


@pytest.fixture(autouse=True)
def _quiet_tracer(monkeypatch):
    """Every test starts with tracing off and no REPRO_* knobs set."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_REPLAY", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_MANIFEST", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    TRACER.disable()
    yield
    TRACER.disable()


def _matmul_env():
    workload = make_workload("MatMul", "tiny")
    env = calibrate_environment(measure_precise_cycles(workload), TINY)
    return workload, env


class TestTracer:
    def test_disabled_emit_is_noop(self, tmp_path):
        assert not TRACER.enabled
        before = TRACER.emitted
        TRACER.emit("outage", tick=1)
        assert TRACER.emitted == before
        assert TRACER.path is None

    def test_enabled_writes_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TRACER.enable(str(path))
        TRACER.emit("outage", tick=7, runtime="clank")
        TRACER.emit("restore", tick=9, cost=60)
        TRACER.disable()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["t"] for e in lines] == ["outage", "restore"]
        assert lines[0]["tick"] == 7
        assert all(e["pid"] == os.getpid() for e in lines)

    def test_disabled_run_emits_zero_events(self):
        """A full benchmark with tracing off must not emit anything."""
        workload, env = _matmul_env()
        before = TRACER.emitted
        run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        assert TRACER.emitted == before


class TestMetrics:
    def test_histogram_merge_matches_combined_observation(self):
        a, b, combined = Histogram(), Histogram(), Histogram()
        for value in (1, 5, 2):
            a.observe(value)
            combined.observe(value)
        for value in (9, 3):
            b.observe(value)
            combined.observe(value)
        a.merge(b)
        assert a == combined
        assert a.mean == pytest.approx(4.0)

    def test_dict_round_trip(self):
        metrics = Metrics()
        metrics.count("outages", 3)
        metrics.observe("wall_ms", 10)
        metrics.observe("wall_ms", 30)
        restored = Metrics.from_dict(metrics.to_dict())
        assert restored == metrics
        assert restored.histograms["wall_ms"].mean == pytest.approx(20.0)

    def test_merge_is_order_independent(self):
        parts = []
        for chunk in ((1, 2), (3,), (4, 5, 6)):
            m = Metrics()
            for v in chunk:
                m.count("samples")
                m.observe("wall_ms", v)
            parts.append(m)
        forward = Metrics()
        for part in parts:
            forward.merge(part)
        backward = Metrics()
        for part in reversed(parts):
            backward.merge(part)
        assert forward == backward
        assert forward.counters["samples"] == 6

    def test_serial_and_parallel_rollups_identical(self):
        """The REPRO_JOBS pool must not change the merged metrics."""
        workload, env = _matmul_env()
        serial = run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        parallel = run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=2)
        assert serial.runs == parallel.runs
        assert serial.merged_metrics() == parallel.merged_metrics()
        counters = serial.merged_metrics().counters
        assert counters["samples"] == len(serial.runs) == 2
        assert counters["outages"] > 0


class TestTraceRoundTrip:
    def _run_grid(self, tmp_path, monkeypatch, replay=True):
        """A fig10-style MatMul grid with tracing (and replay) enabled."""
        if replay:
            monkeypatch.setenv("REPRO_REPLAY", "1")
        common._worker_cache.clear()
        path = tmp_path / "grid.jsonl"
        TRACER.enable(str(path))
        workload, env = _matmul_env()
        results = [
            run_benchmark(workload, mode, bits, "clank", TINY, env, jobs=1)
            for mode, bits in (("precise", None), ("swp", 8), ("swp", 4))
        ]
        TRACER.disable()
        return path, results

    def test_summarizer_accounts_every_sample_and_skim(
        self, tmp_path, monkeypatch
    ):
        path, results = self._run_grid(tmp_path, monkeypatch)
        summary = summarize_trace(str(path))
        grid_samples = sum(len(r.runs) for r in results)
        assert len(summary.samples) == grid_samples
        assert summary.parse_errors == 0
        assert not summary.orphan_events
        # Every skim arm event is attributed to a sample, and the takes
        # agree with the harness's own skim accounting.
        assert summary.skim_arms == sum(
            s.skim_arms for s in summary.samples
        )
        harness_takes = sum(
            run.skim_taken for r in results for run in r.runs
        )
        # A skim handoff resumes on a live executor which may arm (and
        # take) further skims; the trace can only show more, never fewer.
        assert summary.skim_takes >= harness_takes
        assert summary.outages == sum(s.outages for s in summary.samples)
        # All samples replayed (MatMul is exactly replayable): no fallbacks.
        assert not summary.fallback_reasons
        assert set(summary.engines) == {"replay"}

    def test_fallback_reason_accounted(self, tmp_path, monkeypatch):
        """A non-replayable record must show up as a counted fallback."""
        monkeypatch.setenv("REPRO_REPLAY", "1")
        workload, env = _matmul_env()
        # Poison the record cache: the harness must fall back to the
        # interpreter and say why.
        stub = ReplayRecord(64)
        stub.replayable = False
        stub.reason = "synthetic test poison"
        common._worker_cache.clear()
        for mode, bits in (("precise", None), ("swp", 8)):
            common._cache_record(
                ("MatMul", "tiny", mode, bits),
                common.build_anytime(workload, mode, bits), stub,
            )
        try:
            path = tmp_path / "fallback.jsonl"
            TRACER.enable(str(path))
            result = run_benchmark(
                workload, "swp", 8, "clank", TINY, env, jobs=1
            )
            TRACER.disable()
        finally:
            common._worker_cache.clear()
        summary = summarize_trace(str(path))
        assert summary.fallback_reasons == {
            "not-replayable: synthetic test poison": len(result.runs)
        }
        assert set(summary.engines) == {"interp"}
        for sample in summary.samples:
            assert sample.fallback_reason == (
                "not-replayable: synthetic test poison"
            )
        counters = result.merged_metrics().counters
        assert counters["replay_fallbacks"] == len(result.runs)
        assert counters["engine.interp"] == len(result.runs)

    def test_format_summary_renders(self, tmp_path, monkeypatch):
        path, _ = self._run_grid(tmp_path, monkeypatch)
        text = format_summary(summarize_trace(str(path)))
        assert "event counts:" in text
        assert "sample_start" in text
        assert "replay fallbacks: none" in text
        assert "MatMul/swp8/clank" in text

    def test_summarizer_tolerates_garbage_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"no_type": 1}\n{"t": "outage"}\n')
        summary = summarize_trace(str(path))
        assert summary.parse_errors == 2
        assert summary.total_events == 1
        assert isinstance(summary, TraceSummary)


class TestManifest:
    def test_record_result_is_noop_when_idle(self):
        assert active_manifest() is None
        record_result("MatMul", "swp", 8, "clank", "interp")  # must not raise

    def test_manifest_collects_and_writes(self, tmp_path):
        begin_manifest(command="test run")
        try:
            workload, env = _matmul_env()
            run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
            manifest = active_manifest()
            assert manifest is not None
            assert len(manifest.results) == 1
            entry = manifest.results[0]
            assert entry["workload"] == "MatMul"
            assert entry["engine"] == "interp"
            assert entry["samples"] == 2
            assert entry["metrics"]["counters"]["samples"] == 2
        finally:
            out = tmp_path / "manifest.json"
            finish_manifest(str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["command"] == "test run"
        assert data["python"]
        assert len(data["results"]) == 1
        assert active_manifest() is None

    def test_metrics_env_writes_rollup_lines(self, tmp_path, monkeypatch):
        rollup = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS", str(rollup))
        workload, env = _matmul_env()
        run_benchmark(workload, "precise", None, "clank", TINY, env, jobs=1)
        run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        lines = [json.loads(l) for l in rollup.read_text().splitlines()]
        assert [l["mode"] for l in lines] == ["precise", "swp"]
        assert all(l["metrics"]["counters"]["samples"] == 2 for l in lines)


class TestTraceCLI:
    def test_trace_summarize_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "cli.jsonl"
        TRACER.enable(str(path))
        TRACER.emit(
            "sample_start", workload="MatMul", scale="tiny", mode="swp",
            bits=8, runtime="clank", trace=0, invocation=0,
        )
        TRACER.emit("outage", tick=3, runtime="clank", engine="interp")
        TRACER.emit(
            "sample_end", engine="interp", completed=True,
            skim_taken=False, wall_ms=12,
        )
        TRACER.disable()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 events" in out
        assert "MatMul/swp8/clank" in out

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err
