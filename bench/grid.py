"""grid-cli: the offline figure path, in its own process, serial, no store.

``python bench/grid.py setup`` does what every ``python -m repro run``
does before its grid (import, build each kernel's workload, calibrate
its power environment) and prints ``ready``; the benchmark times spawn
to that line as grid-cli's set-up.

``python bench/grid.py run PLAN OUT [SPANS]`` runs the plan's passes the
way ``experiments/fig10.py`` does: per kernel, calibrate, then
``run_benchmark_suite`` per (runtime, build). Each suite call is timed
as one configuration's latency, and the compute probe (``speed.py``)
is timed between configurations. ``OUT`` receives each call's start
and end, the probe's samples, sample and simulated counts, peak RSS and
the sample lists of the plan's check configurations; ``SPANS``
(optional) receives per-layer spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from speed import Speedometer
from workloads import GRID_INVOCATIONS, GRID_KERNELS, GRID_TRACES, grid_configs, grid_job


def setup() -> None:
    from repro.experiments import common
    from repro.workloads import make_workload

    shape = common.ExperimentSetup(trace_count=GRID_TRACES, invocations=GRID_INVOCATIONS)
    for name in GRID_KERNELS:
        workload = make_workload(name, "default")
        common.calibrate_environment(common.measure_precise_cycles(workload), shape)
    print("ready", flush=True)


def run(plan: dict) -> dict:
    """Run every pass of ``plan``; see the module docstring for the output."""
    from repro.experiments import common
    from repro.workloads import make_workload

    workloads = {name: make_workload(name, "default") for name in GRID_KERNELS}
    references = {name: w.decoded_reference() for name, w in workloads.items()}
    checks = {json.dumps(job, sort_keys=True) for job in plan["checks"]}
    speed = Speedometer()
    answers, lags, check_runs = [], [], []
    samples = sim_cycles = outages = skims = 0
    wall = 0.0
    for grid_pass in plan["passes"]:
        shape = common.ExperimentSetup(
            trace_count=GRID_TRACES, invocations=GRID_INVOCATIONS,
            trace_seed=grid_pass["trace_seed"],
        )
        began = time.perf_counter()
        environments = {
            name: common.calibrate_environment(common.measure_precise_cycles(w), shape)
            for name, w in workloads.items()
        }
        previous = time.perf_counter()
        for name, runtime in grid_pass["cells"]:
            for mode, bits in grid_configs(name):
                start = time.perf_counter()
                lags.append(start - previous)
                [result] = common.run_benchmark_suite(
                    workloads[name], [(mode, bits)], runtime, shape,
                    environments[name], references[name],
                )
                end = time.perf_counter()
                answers.append((start, end))
                samples += len(result.runs)
                for sample in result.runs:
                    sim_cycles += sample.active_cycles
                    outages += sample.outages
                    skims += sample.skim_taken
                job = grid_job(name, mode, bits, runtime, grid_pass["trace_seed"])
                if json.dumps(job, sort_keys=True) in checks:
                    check_runs.append([job, [vars(r) for r in result.runs]])
                speed.tick()
                previous = time.perf_counter()
        wall += time.perf_counter() - began
    return {
        "answers": answers,
        "speed": speed.compute.samples,
        "lags": lags,
        "wall_s": wall - sum(d for _t, d in speed.compute.samples),
        "samples": samples,
        "sim": {"samples": samples, "active_cycles": sim_cycles,
                "outages": outages, "skims": skims},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_runs": check_runs,
    }


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        setup()
        return 0
    if argv[:1] != ["run"] or len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    recorder = None
    if len(argv) == 4:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    with open(argv[1], encoding="utf-8") as file:
        plan = json.load(file)
    try:
        out = run(plan)
    finally:
        if recorder is not None:
            recorder.dump(argv[3])
    with open(argv[2], "w", encoding="utf-8") as file:
        json.dump(out, file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
