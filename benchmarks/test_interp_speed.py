"""Speed smoke: the pre-decoded interpreter must stay fast.

Four gates, all machine-independent:

* the fast CPU is at least 4x the reference interpreter on the MatMul
  precise build (the PR that introduced pre-decoding measured 5.5x;
  4x leaves slack for noisy shared runners),
* the normalized rate has not regressed >30% against the committed
  ``BENCH_interp.json`` or the rolling median of the committed bench
  history (same checks as ``python -m repro bench --check``),
* enabling ``REPRO_TRACE`` costs the interpreter's continuous-power hot
  loop under 2%: no observability code runs per instruction, and a
  continuous run crosses zero power-cycle events,
* the same 2% bound holds with ``REPRO_PROFILE`` and ``REPRO_LEDGER``
  armed on top: the profiler reads counters only after a run, and the
  progress ledger books cycles per power chunk, so neither adds a
  single instruction to the dispatch loop.
"""

import os
import time

from repro import benchmarking
from repro.core import AnytimeConfig, AnytimeKernel
from repro.observability import PROFILER, TRACER
from repro.workloads import make_workload


def test_fast_interpreter_speedup():
    payload = benchmarking.run_bench(reps=3)
    by_key = {(c["workload"], c["mode"]): c for c in payload["configs"]}
    matmul = by_key[("MatMul", "precise")]
    assert matmul["speedup"] >= 4.0, (
        f"fast interpreter only {matmul['speedup']:.2f}x over reference"
    )


def test_no_regression_vs_committed_baseline():
    failures = benchmarking.check_bench(reps=3)
    assert not failures, "\n".join(failures)


#: Armed/disarmed pairs per overhead gate. One MatMul run takes 15-30
#: ms, and a shared host's speed shifts by a few percent from run to
#: run (by up to 2x in its slow phases), so the minimum of a few runs
#: each way read 2-4% apart on an unchanged loop. The median ratio of
#: 81 adjacent pairs stayed within 1% of parity.
OVERHEAD_PAIRS = 81


def _overhead(arm, disarm, check):
    """``(overhead, armed_s, disarmed_s)`` of :data:`OVERHEAD_PAIRS`
    pairs of continuous MatMul runs, calling ``check`` after each armed
    run.

    Each pair runs one armed and one disarmed run back to back, and
    each pair swaps which side goes first, so a drift in host speed
    lands on both sides alike. The overhead is the median of the pairs'
    armed/disarmed ratios, minus one: a shift of host speed between
    pairs cancels within each pair, and the median ignores the few
    pairs that a shift splits. ``armed_s`` and ``disarmed_s`` are the
    median pair's times."""
    workload = make_workload("MatMul", "default")
    kernel = AnytimeKernel(
        workload.kernel, AnytimeConfig(mode="precise")
    )

    def run_once() -> float:
        cpu = kernel.make_cpu(workload.inputs)
        start = time.perf_counter()
        cpu.run()
        return time.perf_counter() - start

    run_once()  # warm caches before timing anything
    pairs = []
    try:
        for index in range(OVERHEAD_PAIRS):
            times = {}
            for armed in ((False, True) if index % 2 == 0 else (True, False)):
                (arm if armed else disarm)()
                times[armed] = run_once()
                if armed:
                    check()
            pairs.append((times[True] / times[False], times[True], times[False]))
    finally:
        disarm()
    ratio, armed_s, disarmed_s = sorted(pairs)[len(pairs) // 2]
    return ratio - 1.0, armed_s, disarmed_s


def test_trace_enabled_overhead_under_2_percent(tmp_path):
    """Tracing must be free for the interpreter's dispatch loop.

    Events originate at power-cycle granularity, so a continuous run
    emits nothing; the only candidate cost is the ``TRACER.enabled``
    flag existing at all."""
    trace_path = str(tmp_path / "overhead.jsonl")

    def arm():
        TRACER.enable(trace_path)

    def check():
        assert TRACER.emitted == 0, (
            "continuous-power run must not emit trace events"
        )

    overhead, armed, disarmed = _overhead(arm, TRACER.disable, check)
    assert overhead < 0.02, (
        f"tracing-enabled interpreter is {overhead:.1%} slower "
        f"(median pair: enabled {armed:.4f}s vs disabled {disarmed:.4f}s)"
    )


def test_profiler_ledger_armed_overhead_under_2_percent(tmp_path):
    """Arming the profiler and ledger must not slow the dispatch loop.

    Profiling reads the per-PC counters *after* a run and the progress
    ledger accounts per power chunk, so a continuous-power ``cpu.run()``
    executes zero observability instructions either way. Same
    interleaved paired comparison as the tracer gate; additionally
    pins that a continuous run collects no profile stacks (collection
    happens only in the intermittent harness)."""
    profile_path = str(tmp_path / "overhead.folded")
    ledger_path = str(tmp_path / "overhead_ledger.jsonl")

    def arm():
        PROFILER.enable(profile_path)
        os.environ["REPRO_LEDGER"] = ledger_path

    def disarm():
        PROFILER.disable()
        os.environ.pop("REPRO_LEDGER", None)

    def check():
        assert PROFILER.collections == 0, (
            "continuous-power run must not collect profile stacks"
        )

    overhead, armed, disarmed = _overhead(arm, disarm, check)
    assert overhead < 0.02, (
        f"profiler/ledger-armed interpreter is {overhead:.1%} slower "
        f"(median pair: armed {armed:.4f}s vs disarmed {disarmed:.4f}s)"
    )
