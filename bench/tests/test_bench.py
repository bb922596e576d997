"""Tests for the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import run as bench_run
import stats
import workloads as w
from service import Request, RequestTimeout, closed_loop
from spans import SpanRecorder, _self_ns
from speed import COMPUTE_REF_S, ROUND_TRIP_REF_S, Series, Speedometer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json and the names the benchmark prints ----------------------


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == bench_run.END_TO_END
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == bench_run.per_layer_units()


def test_names_units_and_limits():
    spec = _spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(x["unit"]) for x in spec["end_to_end"] + spec["per_layer"])
    setup = next(x for x in spec["end_to_end"] if x["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(x["bound"] for x in spec["end_to_end"])
    assert spec["command"][1] == "bench/run.py" and spec["paths"] == ["bench"]


# -- generators ---------------------------------------------------------------


def _all_plans(seed):
    warm = w.warm_prefill(seed)
    mixed = w.mixed_prefill(seed)
    return {
        "cold": w.cold_plan(seed),
        "warm": [warm, list(itertools.islice(w.warm_requests(seed, warm), 500))],
        "mixed": [mixed, w.mixed_schedule(seed, mixed, 20)],
        "grid": w.grid_plan(seed),
        "checks": w.check_jobs(seed, warm),
    }


def test_generators_are_deterministic():
    def canonical(seed):
        return json.dumps(_all_plans(seed), sort_keys=True).encode()

    assert canonical(7) == canonical(7)
    assert canonical(7) != canonical(8)


def test_plans_draw_only_valid_configs():
    plans = _all_plans(3)
    jobs = plans["cold"] + plans["warm"][0] + plans["mixed"][0]
    jobs += [j for _due, _kind, j in plans["mixed"][1]]
    for job in jobs:
        technique = w.TECHNIQUE[job["workload"]]
        if job["mode"] == "precise":
            assert job["bits"] is None
        else:
            assert job["mode"] == technique and job["bits"] in w.VALID_BITS[technique]
        assert job["runtime"] in w.RUNTIMES
    assert not [j for j in jobs if j["mode"] == "swv" and j["bits"] in (1, 2, 3)]


def test_kernel_table_matches_the_registry():
    from repro.workloads import ALL_BENCHMARKS, make_workload

    assert tuple(name for name, _ in w.KERNELS) == ALL_BENCHMARKS
    for name, technique in w.KERNELS:
        assert make_workload(name, "tiny").technique == technique


def test_seed_changes_order_not_population():
    def population(seed):
        return Counter((j["workload"], j["mode"], j["bits"], j["runtime"], j["scale"])
                       for j in w.cold_plan(seed))

    assert population(1) == population(2)
    assert len(w.cold_plan(1)) == 61
    schedules = [w.mixed_schedule(s, w.mixed_prefill(s), 20) for s in (1, 2)]
    for schedule in schedules:
        kinds = Counter(kind for _due, kind, _job in schedule)
        assert kinds == {"hit": 425, "miss": 75, "dup": 25}
    requests = itertools.islice(w.warm_requests(1, w.warm_prefill(1)), 1000)
    fulls = Counter(full for _job, full in requests)
    assert fulls == {True: 250, False: 750}


# -- statistics ---------------------------------------------------------------


def test_tail_level_keeps_ten_samples_beyond():
    assert stats.tail_level(39) == 50.0
    assert stats.tail_level(40) == 75.0
    assert stats.tail_level(99) == 75.0
    assert stats.tail_level(100) == 90.0
    assert stats.tail_level(999) == 90.0
    assert stats.tail_level(1000) == 99.0
    assert stats.tail_level(100000) == 99.0
    for count in (20, 61, 150, 1500, 15000):
        level = stats.tail_level(count)
        assert count * (100 - level) / 100 >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([], 50) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    parent = [1, 0, "p", 0, 100, None]
    children = [[2, 1, "a", 10, 40, None], [3, 1, "b", 30, 60, None],
                [4, 1, "c", 90, 120, None]]
    assert _self_ns(parent, children) == 100 - 50 - 10


def test_series_rescales_by_the_nearest_probes():
    series = Series(0.002)
    series.merge([(float(t), 0.004 if t < 50 else 0.001) for t in range(100)])
    assert series.scaled(10.0, 10.5) == pytest.approx(0.5 * 0.002 / 0.004)
    assert series.scaled(90.0, 91.0) == pytest.approx(0.002 / 0.001)


def test_hits_scale_by_round_trips_and_first_answers_by_progressive_events():
    speed = Speedometer()
    speed.compute.merge([(float(t), COMPUTE_REF_S) for t in range(20)])
    speed.round_trip.merge([(float(t), ROUND_TRIP_REF_S / 2) for t in range(20)])
    hits = [(0.0, 0.002, None, True)] * 10
    misses = [(1.0, 1.5, 1.1, False)] * 3
    measured = bench_run.Measured(speed, answers=hits + misses, setups=[(0.0, 0.4)])
    metrics = bench_run.end_to_end(measured)
    assert metrics["latency_mean_ms"] == pytest.approx((10 * 4.0 + 3 * 500.0) / 13)
    assert metrics["first_answer_mean_ms"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.4)
    measured.answers = hits
    assert bench_run.end_to_end(measured)["first_answer_mean_ms"] == pytest.approx(4.0)


def test_closed_loop_deadline_counts_a_timeout_as_failed(tmp_path):
    class Silent:
        """A connection whose requests are never answered."""

        def submit(self, job, full=False, start=None):
            now = time.perf_counter()
            return Request(now, now)

    run = bench_run.Run({}, tmp_path / "work")

    async def loop():
        await closed_loop(Silent(), [({}, False)] * 3, run.speed, run.account,
                          timeout_s=0.01)

    try:
        with pytest.raises(RequestTimeout):
            asyncio.run(loop())
    finally:
        run.close()
    assert (run.attempted, run.failed) == (1, 1)
    assert "timeout" in run.problems[0]


# -- smoke runs at minimal size -------------------------------------------------


@pytest.fixture
def env(tmp_path):
    environ = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environ["PYTHONPATH"] = str(ROOT / "src")
    return environ


def _tiny(job):
    return {**job, "scale": "tiny"}


def _run(coroutine, args, env, tmp_path, recorder=None):
    run = bench_run.Run(env, tmp_path / "work", recorder)
    try:
        measured = asyncio.run(coroutine(run, *args))
    finally:
        run.close()
    assert run.failed == 0, run.problems
    assert run.attempted > 0 and not run.problems
    metrics = bench_run.end_to_end(measured)
    assert set(metrics) == set(bench_run.END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
    return run, measured


def test_smoke_cold_configs(env, tmp_path):
    jobs = [j for j in w.cold_plan(5) if j["scale"] == "tiny"
            and j["workload"] in ("Home", "Var")][:3]
    _run(bench_run.cold_configs, (jobs, w.check_jobs(5, jobs)[:1]), env, tmp_path)


def test_smoke_warm_hits(env, tmp_path):
    prefill = [_tiny(j) for j in w.warm_prefill(5)[:2]]
    requests = list(itertools.islice(w.warm_requests(5, prefill), 6))
    run, _measured = _run(bench_run.warm_hits, (prefill, requests, prefill[:1], 60.0),
                          env, tmp_path)
    assert run.attempted == len(prefill) + len(requests) + 2


def test_smoke_mixed_open(env, tmp_path):
    prefill = [_tiny(j) for j in w.mixed_prefill(5) if j["workload"] == "Home"][:2]
    schedule = w.mixed_schedule(5, prefill, 0.5)
    _run(bench_run.mixed_open, (prefill, schedule, prefill[:1]), env, tmp_path)


def test_smoke_grid_cli(env, tmp_path):
    grid_pass = {"trace_seed": 11, "cells": [["Home", "clank"]]}
    checks = [w.grid_job("Home", "precise", None, "clank", 11)]
    _run(bench_run.grid_cli, ([grid_pass], checks), env, tmp_path)


def test_smoke_traced_run_reports_every_layer(env, tmp_path):
    jobs = [j for j in w.cold_plan(6) if j["scale"] == "tiny"
            and j["workload"] == "Home"][:2]
    args = (jobs, jobs[:1])
    _plain_run, plain = _run(bench_run.cold_configs, args, env, tmp_path / "plain")
    recorder = SpanRecorder()
    recorder.install()
    try:
        run, traced = _run(bench_run.cold_configs, args, env, tmp_path / "traced", recorder)
    finally:
        recorder.uninstall()
    metrics, table = bench_run.per_layer(run, traced, plain)
    assert list(metrics) == list(bench_run.per_layer_units())
    for name in ("service.submit", "service.compute", "store.put", "sim.record_run",
                 "runtime.batch_group", "runtime.live", "experiments.suite"):
        assert table[name]["calls"] > 0, name
    assert metrics["sim.samples"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0
