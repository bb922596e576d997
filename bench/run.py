#!/usr/bin/env python3
"""One end-to-end benchmark for the experiment service and the figure grid.

Usage (from the repository root)::

    python3 bench/run.py --seed 1 [--workload W ...] [--seconds 10]
                         [--trace {0,1}] [--json OUT]

Workloads (bench/README.md says why each exists):

* ``cold-configs`` - closed loop, every job a store miss on a fresh server;
* ``warm-hits``    - closed loop, every job a store hit;
* ``mixed-open``   - open loop at 25 req/s, 85% hits and 15% misses;
* ``grid-cli``     - the offline figure grid, serial, no store.

The seed re-draws each workload's inputs. ``--seconds`` is how long the
warm-hits loop and the mixed-open schedule run; cold-configs and
grid-cli do fixed work. Every timing is rescaled to a reference host
speed (``speed.py``). Every metric is printed as
``workload metric value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones, taken from a traced
run of the same plan that follows the plain one. The exit code is 1
when an output check fails, and 2 on a usage error, including a
checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import workloads as plans
from checks import Checker, local_runs, same_samples
from spans import TARGETS, TIMED, SpanRecorder, layer_table
from speed import EchoPeer, Speedometer
from stats import level_name, percentile, tail_level

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space for servers, stores and spans, relative to ROOT.
WORK = Path(".bench_work")

#: End-to-end metrics and their units; timings are at the reference
#: host speed (speed.py). Medians and tails are printed as notes, not
#: gated: over ten seeds the cold-configs median spread by 0.08-0.15,
#: its p90 by 0.12 and the warm-hits p99 by 0.17 (host hiccups, and gaps
#: between the clusters of configurations of different cost).
END_TO_END = {
    "setup_s": "s",
    "latency_mean_ms": "ms",
    "first_answer_mean_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics beyond each span name's calls/busy/self/p50/p99.
LAYER_EXTRAS = {
    "service.submit.self_ms_p99": "ms",
    "service.dedup_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "sim.dispatch_instr_per_s": "1/s",
    "sim.record_instr_per_s": "1/s",
    "sim.record_replayable_ratio": "ratio",
    "runtime.lane_samples_per_s": "1/s",
    "runtime.lane_demotion_ratio": "ratio",
    "runtime.live_sim_cycles_per_s": "1/s",
    "sim.samples": "count",
    "sim.active_cycles_total": "count",
    "sim.outages_total": "count",
    "sim.skims_total": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: Set-up is measured this many times per run and reported as a median.
SETUP_REPEATS = 5
#: mixed-open is invalid when the generator ran later than this ...
MAX_LAG_P99_MS = 10.0
#: ... or when requests are still unanswered this long after the schedule.
DRAIN_S = 10.0
GRID_TIMEOUT_S = 170.0


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units: Dict[str, str] = {}
    for name, _module, _attribute in TARGETS:
        if f"{name}.calls" in units:
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in TIMED:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p99_ms"] = "ms"
    units.update(LAYER_EXTRAS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Measured:
    """What one workload run timed, as raw ``perf_counter`` readings; the
    host-speed samples to rescale them come with it."""

    speed: Speedometer
    #: (start, end, first progressive event or None, store hit) of each
    #: answer.
    answers: List[Tuple[float, float, Optional[float], bool]] = field(default_factory=list)
    #: (spawn, ready) of each set-up.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0
    peak_rss_mb: float = 0.0

    def add(self, requests) -> None:
        for request in requests:
            if request.outcome == "ok":
                self.answers.append((request.start, request.end, request.first, request.hit))
            self.lags.append(request.lag)


class Run:
    """One workload run: its servers, tallies, host-speed samples and
    (when traced) spans."""

    def __init__(self, env: Dict[str, str], work: Path, recorder=None) -> None:
        self.env, self.work, self.recorder = env, work, recorder
        work.mkdir(parents=True)
        self.speed = Speedometer(EchoPeer())
        self.servers = 0
        self.span_files: List[Path] = []
        self.checker = Checker()
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self.counters: Counter = Counter()
        self.rss: List[float] = []
        #: Caller-side time of every call that has an entry span (service
        #: submits, grid suite calls), the base of trace.coverage.
        self.client_entry_s = 0.0
        self.grid_sim: Dict[str, int] = {}

    def close(self) -> None:
        """Stop the round-trip probe's echo peer."""
        self.speed.close()

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def account(self, request) -> None:
        """Tally one finished request and check its answer."""
        self.attempted += 1
        if request.outcome != "ok":
            self.fail(f"request ended with {request.outcome}: {request.event}")
        else:
            self.client_entry_s += request.end - request.sent
            if not self.checker.result(request.event):
                self.fail(f"answer for {request.event.get('fingerprint')} "
                          "differs from the first one")
        request.event = None

    @contextlib.asynccontextmanager
    async def serving(self, setups: Optional[list] = None):
        """A fresh server for the body of the ``async with``; its boot is
        bracketed by host-speed samples."""
        from service import Server

        self.servers += 1
        spans = None
        if self.recorder is not None:
            spans = self.work / f"spans-{self.servers}.json"
            self.span_files.append(spans)
        server = Server(ROOT, self.work / f"server-{self.servers}", self.env, spans)
        try:
            self.speed.sample()
            setup = await server.start()
            self.speed.sample()
            if setups is not None:
                setups.append(setup)
            yield server
            counters, rss = await server.stop()
        except BaseException:
            server.kill()
            raise
        self.counters.update({k: v for k, v in counters.items() if type(v) is int})
        self.rss.append(rss)

    async def submit_checks(self, server, jobs) -> List[Optional[list]]:
        """Submit ``jobs`` asking for full sample lists; returns them."""
        from service import closed_loop

        fingerprints = []

        def on_done(request) -> None:
            fingerprints.append((request.event or {}).get("fingerprint"))
            self.account(request)

        await closed_loop(server.conn, [(j, True) for j in jobs], self.speed, on_done)
        return [self.checker.runs(fingerprint) for fingerprint in fingerprints]

    async def check_service(self, server, jobs) -> None:
        """Cross-check the service's batch engine against the interpreter."""
        for job, runs in zip(jobs, await self.submit_checks(server, jobs)):
            self.attempted += 1
            if not same_samples(runs, local_runs(job)):
                self.fail(f"service samples differ from the interpreter's for {job}")

    async def setup_repeats(self, measured: Measured) -> None:
        """Boot bare servers until set-up has been measured enough times."""
        while len(measured.setups) < SETUP_REPEATS:
            async with self.serving(measured.setups):
                pass


async def cold_configs(run: Run, jobs: List[dict], checks: List[dict]) -> Measured:
    """A fresh server and a closed loop of store misses; the checks run
    after it, as store hits."""
    from service import closed_loop

    measured = Measured(run.speed)
    async with run.serving(measured.setups) as server:
        began = time.perf_counter()
        requests = await closed_loop(server.conn, [(j, False) for j in jobs],
                                     run.speed, run.account)
        measured.busy_s = time.perf_counter() - began
        measured.completed = len(requests)
        measured.add(requests)
        await run.check_service(server, checks)
    measured.peak_rss_mb = max(run.rss)
    await run.setup_repeats(measured)
    return measured


async def warm_hits(run: Run, prefill: List[dict], requests: Iterable,
                    checks: List[dict], seconds: float) -> Measured:
    """An untimed prefill, then ``seconds`` of a closed loop of store hits."""
    from service import closed_loop

    measured = Measured(run.speed)
    async with run.serving(measured.setups) as server:
        await closed_loop(server.conn, [(j, True) for j in prefill], run.speed, run.account)
        began = time.perf_counter()
        deadline = began + seconds
        timed = itertools.takewhile(lambda _r: time.perf_counter() < deadline, requests)
        done = await closed_loop(server.conn, timed, run.speed, run.account)
        measured.busy_s = time.perf_counter() - began
        measured.completed = len(done)
        measured.add(done)
        await run.check_service(server, checks)
    measured.peak_rss_mb = max(run.rss)
    await run.setup_repeats(measured)
    return measured


async def mixed_open(run: Run, prefill: List[dict], schedule: list,
                     checks: List[dict]) -> Measured:
    """An untimed prefill, then an open loop on a fixed schedule. The run
    is invalid when the generator lags or requests never finish."""
    from service import closed_loop, open_loop

    measured = Measured(run.speed)
    async with run.serving(measured.setups) as server:
        await closed_loop(server.conn, [(j, True) for j in prefill], run.speed, run.account)
        began = time.perf_counter()
        done, late = await open_loop(server.conn, schedule, DRAIN_S, run.speed, run.account)
        measured.busy_s = max(r.end for r in done) - began
        measured.completed = sum(r.outcome == "ok" for r in done)
        measured.add(done)
        if late:
            run.problems.append(f"invalid run: {late} requests unanswered "
                                f"{DRAIN_S:g} s after the schedule")
        await run.check_service(server, checks)
    lag_p99_ms = percentile(sorted(measured.lags), 99) * 1e3
    if lag_p99_ms > MAX_LAG_P99_MS:
        run.fail(f"invalid run: generator lag p99 {lag_p99_ms:.1f} ms "
                 f"> {MAX_LAG_P99_MS:g} ms")
    measured.peak_rss_mb = max(run.rss)
    await run.setup_repeats(measured)
    return measured


async def grid_cli(run: Run, passes: List[dict], checks: List[dict]) -> Measured:
    """The figure grid in a child process, then a service cross-check of
    its check configurations (interpreter against batch engine)."""
    measured = Measured(run.speed)
    script = str(Path(__file__).with_name("grid.py"))
    for _ in range(SETUP_REPEATS):
        run.speed.sample()
        spawned = time.perf_counter()
        with subprocess.Popen([sys.executable, script, "setup"], cwd=ROOT, env=run.env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            measured.setups.append((spawned, time.perf_counter()))
            run.speed.sample()
            proc.wait(timeout=GRID_TIMEOUT_S)
        if ready.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("grid set-up failed")

    plan_path, out_path = run.work / "grid-plan.json", run.work / "grid-out.json"
    plan_path.write_text(json.dumps({"passes": passes, "checks": checks}))
    command = [sys.executable, script, "run", str(plan_path), str(out_path)]
    if run.recorder is not None:
        run.span_files.append(run.work / "spans-grid.json")
        command.append(str(run.span_files[-1]))
    subprocess.run(command, cwd=ROOT, env=run.env, stdin=subprocess.DEVNULL,
                   check=True, timeout=GRID_TIMEOUT_S)
    out = json.loads(out_path.read_text())
    measured.answers = [(start, end, None, False) for start, end in out["answers"]]
    run.speed.compute.merge(out["speed"])
    measured.lags = out["lags"]
    measured.completed, measured.busy_s = out["samples"], out["wall_s"]
    measured.peak_rss_mb = out["peak_rss_mb"]
    run.attempted += len(out["answers"])
    run.client_entry_s += sum(end - start for start, end in out["answers"])
    run.grid_sim = out["sim"]

    grid_runs = {json.dumps(job, sort_keys=True): runs for job, runs in out["check_runs"]}
    async with run.serving() as server:
        service_runs = await run.submit_checks(server, checks)
    for job, runs in zip(checks, service_runs):
        run.attempted += 1
        if not same_samples(grid_runs.get(json.dumps(job, sort_keys=True)), runs):
            run.fail(f"grid samples differ from the service's for {job}")
    return measured


def plan(workload: str, seed: int, seconds: float) -> Tuple:
    """The workload's coroutine function and its seeded arguments."""
    if workload == "cold-configs":
        jobs = plans.cold_plan(seed)
        return cold_configs, (jobs, plans.check_jobs(seed, jobs))
    if workload == "warm-hits":
        prefill = plans.warm_prefill(seed)
        return warm_hits, (prefill, plans.warm_requests(seed, prefill),
                           plans.check_jobs(seed, prefill), seconds)
    if workload == "mixed-open":
        prefill = plans.mixed_prefill(seed)
        return mixed_open, (prefill, plans.mixed_schedule(seed, prefill, seconds),
                            plans.check_jobs(seed, prefill))
    passes = plans.grid_plan(seed)
    return grid_cli, (passes, plans.grid_check_jobs(seed, passes[-1]))


def scaled_latencies(measured: Measured) -> List[float]:
    """Every answer's latency at the reference speed, ascending: a store
    hit by the round-trip probe, anything computed by the compute probe."""
    speed = measured.speed
    return sorted((speed.round_trip if hit else speed.compute).scaled(start, end)
                  for start, end, _first, hit in measured.answers)


def first_answers(measured: Measured) -> List[float]:
    """Time to the first usable answer at the reference speed, ascending:
    the ``progressive`` event of the requests that had one (the misses);
    a workload without any (warm-hits, grid-cli) answers with its result."""
    compute = measured.speed.compute
    previews = sorted(compute.scaled(start, first)
                      for start, _end, first, _hit in measured.answers if first is not None)
    return previews or scaled_latencies(measured)


def end_to_end(measured: Measured) -> Dict[str, float]:
    """The gated metrics. Latencies are reported as means: each workload
    mixes configurations of very different cost, a mean moves with each
    by its share, and a median can sit in a gap between them and jump."""
    compute = measured.speed.compute
    return {
        "setup_s": statistics.median(compute.scaled(*setup) for setup in measured.setups),
        "latency_mean_ms": statistics.fmean(scaled_latencies(measured)) * 1e3,
        "first_answer_mean_ms": statistics.fmean(first_answers(measured)) * 1e3,
        "peak_rss_mb": measured.peak_rss_mb,
    }


def notes(measured: Measured) -> str:
    """The ungated figures: counts, tails, raw throughput, the host's
    speed and the generator's lag."""
    def summary(values: List[float]) -> str:
        if not values:
            return "none"
        level = tail_level(len(values))
        return (f"p50 {percentile(values, 50) * 1e3:.3f}, {level_name(level)} "
                f"{percentile(values, level) * 1e3:.3f} ms")

    latencies = scaled_latencies(measured)
    speed = measured.speed
    hits = sorted(speed.round_trip.scaled(start, end)
                  for start, end, _first, hit in measured.answers if hit)
    previews = sum(first is not None for _s, _e, first, _hit in measured.answers)
    parts = [f"latency {summary(latencies)}"]
    if previews:
        parts.append(f"first answer {summary(first_answers(measured))}")
    if 0 < len(hits) < len(latencies):
        parts.append(f"store hits {summary(hits)}")
    return (f"{len(latencies)} answers ({len(hits)} store hits, {previews} with a "
            f"progressive event); {'; '.join(parts)}; raw throughput "
            f"{_ratio(measured.completed, measured.busy_s):.3f} /s; host speed "
            f"(of reference) compute {speed.compute.speed():.3f}, round trip "
            f"{speed.round_trip.speed():.3f} over {len(speed.compute.samples)} "
            f"probes; generator lag p99 {percentile(sorted(measured.lags), 99) * 1e3:.3f} ms")


def per_layer(run: Run, traced: Measured, plain: Measured) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of a traced run (``plain``: its untraced twin),
    and the span table they come from."""
    span_sets = [json.loads(path.read_text()) for path in run.span_files]
    entry_s = sum((s[4] - s[3]) / 1e9 for spans in span_sets for s in spans
                  if s[2] in ("service.submit", "experiments.suite"))
    table = layer_table(span_sets + [run.recorder.spans])
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0,
             "p99_ms": 0.0, "self_p99_ms": 0.0, "work": {}}

    def row(name: str) -> dict:
        return table.get(name, empty)

    metrics: Dict[str, float] = {}
    for metric in per_layer_units():
        name, _, key = metric.rpartition(".")
        if metric not in LAYER_EXTRAS:
            metrics[metric] = row(name)[key]

    sim = Counter(run.checker.sim)
    sim.update(run.grid_sim)
    misses = run.counters["submissions"] - run.counters["store_hits"]
    batch = row("runtime.batch_group")
    metrics.update({
        "service.submit.self_ms_p99": row("service.submit")["self_p99_ms"],
        "service.dedup_ratio": _ratio(run.counters["inflight_dedups"], misses),
        "store.hit_ratio": _ratio(row("store.load")["work"].get("hit", 0),
                                  row("store.load")["calls"]),
        "sim.dispatch_instr_per_s": _ratio(row("sim.kernel_run")["work"].get("instructions", 0),
                                           row("sim.kernel_run")["busy_s"]),
        "sim.record_instr_per_s": _ratio(row("sim.record_run")["work"].get("instructions", 0),
                                         row("sim.record_run")["busy_s"]),
        "sim.record_replayable_ratio": _ratio(row("sim.record_run")["work"].get("replayable", 0),
                                              row("sim.record_run")["calls"]),
        "runtime.lane_samples_per_s": _ratio(batch["work"].get("lanes", 0), batch["busy_s"]),
        "runtime.lane_demotion_ratio": _ratio(batch["work"].get("demoted", 0),
                                              batch["work"].get("lanes", 0)),
        "runtime.live_sim_cycles_per_s": _ratio(row("runtime.live")["work"].get("cycles", 0),
                                                row("runtime.live")["busy_s"]),
        "sim.samples": sim["samples"],
        "sim.active_cycles_total": sim["active_cycles"],
        "sim.outages_total": sim["outages"],
        "sim.skims_total": sim["skims"],
        "loadgen.lag_p99_ms": percentile(sorted(traced.lags), 99) * 1e3,
        "trace.overhead_ratio": _ratio(statistics.fmean(scaled_latencies(traced)),
                                       statistics.fmean(scaled_latencies(plain))),
        "trace.coverage": _ratio(entry_s, run.client_entry_s),
    })
    return metrics, table


def measure(run: Run, workload: str, seed: int, seconds: float) -> Optional[Measured]:
    """One run of a workload; None when a request timed out and ended it."""
    from service import RequestTimeout

    if run.recorder is not None:
        run.recorder.install()
    try:
        coroutine, args = plan(workload, seed, seconds)
        return asyncio.run(coroutine(run, *args))
    except RequestTimeout as error:
        run.problems.append(f"run ended early: {error}")
        return None
    finally:
        run.close()
        if run.recorder is not None:
            run.recorder.uninstall()


def report(workload: str, seed: int, seconds: float, trace: bool,
           env: Dict[str, str], work: Path) -> dict:
    """Run one workload (twice with ``trace``), print its metrics and
    return its result object."""
    def emit(values: Dict[str, float], units: Dict[str, str]) -> None:
        for name, value in values.items():
            print(f"{workload} {name} {value!r} {units[name]}")

    runs = [Run(env, work / "plain")]
    measured = measure(runs[0], workload, seed, seconds)
    metrics, units = {}, END_TO_END
    if measured is not None:
        metrics = end_to_end(measured)
        print(f"# {workload} seed {seed}: {notes(measured)}")
        emit(metrics, units)
    if trace and measured is not None:
        runs.append(Run(env, work / "traced", SpanRecorder()))
        traced = measure(runs[1], workload, seed, seconds)
        metrics, units = {}, per_layer_units()
        if traced is not None:
            metrics, table = per_layer(runs[1], traced, measured)
            print(f"# {workload} per-layer spans (traced run)")
            print(f"# {'span':28s} {'calls':>7s} {'busy_s':>9s} {'self_s':>9s} "
                  f"{'p50_ms':>9s} {'p99_ms':>9s}")
            for name, row in sorted(table.items()):
                print(f"# {name:28s} {row['calls']:7d} {row['busy_s']:9.3f} "
                      f"{row['self_s']:9.3f} {row['p50_ms']:9.3f} {row['p99_ms']:9.3f}")
            emit(metrics, units)
    for problem in (p for r in runs for p in r.problems):
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": bool(metrics) and all(r.failed == 0 and not r.problems for r in runs),
        "attempted": max(1, sum(r.attempted for r in runs)),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=plans.WORKLOADS,
                        help="repeat to run several (default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long warm-hits and mixed-open run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: also run traced, report per-layer metrics")
    parser.add_argument("--json", help="also write the result objects to this file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    json_path = Path(args.json).resolve() if args.json else None

    # Measure the defaults users get: no REPRO_* switch reaches this
    # process or the servers it starts.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    work = WORK / str(os.getpid())
    results = {}
    try:
        for workload in args.workload or plans.WORKLOADS:
            results[workload] = report(workload, args.seed, args.seconds,
                                       bool(args.trace), env, work / workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
