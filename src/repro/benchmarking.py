"""Interpreter speed harness: fast pre-decoded CPU vs. the reference.

Times both interpreters end-to-end on three representative builds —
MatMul precise (the pure-ALU/MUL baseline), MatMul SWP 8-bit (subword
multiplies + skim points) and Home SWV 8-bit (the vector-add technique)
— and records instructions/second for each, the fast/reference speedup,
and a machine-normalized rate.

Normalization: absolute instr/s numbers are machine-dependent, so the
harness times a fixed pure-Python integer loop (the "machine score")
and stores each rate divided by it. Each rep of a config times the
loop in slices interleaved with its fast-CPU runs and divides the
rep's rate by that rep's score, so host load moves the two together;
the stored figure is the median over reps. The CI speed smoke
(``python -m repro bench --check``) recomputes the normalized fast-CPU
rate and fails on a >30% regression against the committed
``BENCH_interp.json``, independent of which runner executed it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .core import AnytimeKernel
from .sim import ReferenceCPU

#: (workload, mode, bits) builds the harness times, at default scale.
BENCH_CONFIGS = (
    ("MatMul", "precise", None),
    ("MatMul", "swp", 8),
    ("Home", "swv", 8),
    # The suite's heaviest kernel, long absent from the bench grid; the
    # committed baseline gates only the keys it already has, so this
    # config starts gating once it lands in BENCH_interp.json and the
    # rolling history.
    ("Conv2d", "swp", 8),
)

DEFAULT_OUTPUT = Path(__file__).resolve().parents[2] / "BENCH_interp.json"
DEFAULT_GRID_OUTPUT = Path(__file__).resolve().parents[2] / "BENCH_grid.json"
DEFAULT_HISTORY = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "history.jsonl"
)
REGRESSION_TOLERANCE = 0.30

#: How many recent history records the rolling-median gate considers.
HISTORY_WINDOW = 20

#: The grid harness times the Figure-10 configuration grid of this
#: workload (precise + 8-/4-bit anytime builds on Clank, 9 traces x 3
#: invocations each) with the interpreter and with the replay engine.
GRID_WORKLOAD = "MatMul"
GRID_RUNTIME = "clank"

#: The NN-inference cross-check appended to every grid bench: the same
#: three-config grid on the MLP classifier under the progress runtime,
#: one untimed pass per engine, gated on bit-identity only (timing
#: history stays a pure MatMul/clank series).
NN_GRID_WORKLOAD = "MLP"
NN_GRID_RUNTIME = "progress"

_MACHINE_LOOP_ITERS = 2_000_000

#: Slices of the machine loop interleaved with one rep's timed fast-CPU
#: runs: each run follows a slice, so a host that changes speed
#: during the rep moves the rate and the score together.
_SCORE_SLICES = 8


def _loop_seconds(start: int, stop: int) -> float:
    """Seconds the machine loop takes over iterations ``[start, stop)``."""
    mask = 0xFFFFFFFF
    acc = 0
    begin = time.perf_counter()
    for i in range(start, stop):
        acc = (acc + i * i) & mask
    return time.perf_counter() - begin


def machine_score() -> float:
    """Iterations/second of a fixed integer loop — the machine baseline."""
    return _MACHINE_LOOP_ITERS / _loop_seconds(0, _MACHINE_LOOP_ITERS)


def _run_seconds(kernel: AnytimeKernel, inputs, cpu_cls) -> Tuple[int, float]:
    """Instructions and seconds of one full run."""
    cpu = kernel.make_cpu(inputs, cpu_cls=cpu_cls)
    start = time.perf_counter()
    cpu.run()
    return cpu.stats.instructions, time.perf_counter() - start


def _scored_rate(kernel: AnytimeKernel, inputs, cpu_cls) -> Tuple[float, float]:
    """Instructions/second of ``_SCORE_SLICES`` full runs, and the
    machine score of the whole machine loop, timed in slices between
    them."""
    step = _MACHINE_LOOP_ITERS // _SCORE_SLICES
    loop_s = run_s = 0.0
    instructions = 0
    for start in range(0, _MACHINE_LOOP_ITERS, step):
        loop_s += _loop_seconds(start, start + step)
        count, seconds = _run_seconds(kernel, inputs, cpu_cls)
        instructions += count
        run_s += seconds
    return instructions / run_s, _MACHINE_LOOP_ITERS / loop_s


def run_bench(reps: int = 5, scale: str = "default") -> dict:
    """Time every config; returns the BENCH_interp.json payload.

    Each config's rates are medians over ``reps`` reps;
    ``machine_ops_per_s`` is the median of every rep's score."""
    from .experiments.common import worker_build, worker_workload

    all_scores: List[float] = []
    configs = []
    for name, mode, bits in BENCH_CONFIGS:
        workload = worker_workload(name, scale)
        kernel = worker_build(workload, mode, bits).kernel
        probe = kernel.make_cpu(workload.inputs)
        probe.run()
        instructions = probe.stats.instructions

        scored = [
            _scored_rate(kernel, workload.inputs, type(probe)) for _ in range(reps)
        ]
        all_scores.extend(score for _rate, score in scored)
        fast = statistics.median(rate for rate, _score in scored)
        ref = statistics.median(
            count / seconds for count, seconds in (
                _run_seconds(kernel, workload.inputs, ReferenceCPU)
                for _ in range(reps)
            )
        )
        configs.append(
            {
                "workload": name,
                "mode": mode,
                "bits": bits,
                "scale": scale,
                "instructions": instructions,
                "reference_instr_per_s": round(ref, 1),
                "fast_instr_per_s": round(fast, 1),
                "speedup": round(fast / ref, 3),
                # Machine-independent: fast instr/s per machine-loop
                # op/s, each rep over the score timed beside its runs.
                "normalized_fast": round(statistics.median(
                    rate / score for rate, score in scored
                ), 6),
            }
        )
    return {
        "schema": 1,
        "machine_ops_per_s": round(statistics.median(all_scores), 1),
        "reps": reps,
        "configs": configs,
    }


def write_bench(
    path: Optional[Path] = None,
    reps: int = 5,
    history: Optional[Path] = DEFAULT_HISTORY,
) -> dict:
    """Run the bench, write the baseline JSON and append to the history.

    Pass ``history=None`` to skip the history append (tests do).
    """
    path = path or DEFAULT_OUTPUT
    payload = run_bench(reps=reps)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    if history is not None:
        append_history(history_record(payload), history)
    return payload


def history_record(payload: dict) -> dict:
    """Compact ``history.jsonl`` record for an interpreter bench payload.

    Only the machine-normalized figures survive into history — absolute
    instr/s rates are runner-dependent and would make the rolling median
    meaningless across CI machines.
    """
    return {
        "kind": "interp",
        "t": round(time.time(), 1),
        "machine_ops_per_s": payload["machine_ops_per_s"],
        "configs": [
            {
                "workload": c["workload"],
                "mode": c["mode"],
                "bits": c["bits"],
                "normalized_fast": c["normalized_fast"],
            }
            for c in payload["configs"]
        ],
    }


def grid_history_record(payload: dict) -> dict:
    """Compact ``history.jsonl`` record for a grid bench payload."""
    grid = payload["grid"]
    return {
        "kind": "grid",
        "t": round(time.time(), 1),
        "scale": grid["scale"],
        "machine_ops_per_s": payload["machine_ops_per_s"],
        "normalized_replay": grid["normalized_replay"],
        "store_speedup": grid.get("store_speedup"),
        "identical": grid["identical"],
    }


def check_grid_history(
    payload: dict,
    path: Optional[Path] = None,
    tolerance: float = REGRESSION_TOLERANCE,
    window: int = HISTORY_WINDOW,
) -> List[str]:
    """Gate grid rates against the rolling median of the grid history.

    Mirrors :func:`check_history` for the replay engine: the floor is
    ``median(last window grid records) * (1 - tolerance)``. An empty
    history passes trivially.
    Only records at the payload's scale participate — normalized rates
    are not comparable across grid scales (records predating the scale
    stamp are treated as default-scale).
    """
    scale = payload["grid"]["scale"]
    records = [
        r
        for r in load_history(path)
        if r.get("kind") == "grid" and r.get("scale", "default") == scale
    ]
    records = records[-window:]
    rate = payload["grid"]["normalized_replay"]
    values = [
        r["normalized_replay"] for r in records
        if isinstance(r.get("normalized_replay"), (int, float))
    ]
    if not values:
        return []
    median = statistics.median(values)
    floor = median * (1.0 - tolerance)
    if rate >= floor:
        return []
    return [
        f"grid replay: normalized rate {rate:.3e} is below {floor:.3e} "
        f"(rolling median of {len(values)} record(s) {median:.3e} - "
        f"{tolerance:.0%})"
    ]


def append_history(record: dict, path: Optional[Path] = None) -> Path:
    """Append one record to the bench history JSONL (creating it)."""
    path = path or DEFAULT_HISTORY
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as file:
        file.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def load_history(path: Optional[Path] = None) -> List[dict]:
    """Parse the history JSONL, tolerating missing files and bad lines."""
    path = path or DEFAULT_HISTORY
    records: List[dict] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def check_history(
    current: dict,
    path: Optional[Path] = None,
    tolerance: float = REGRESSION_TOLERANCE,
    window: int = HISTORY_WINDOW,
) -> List[str]:
    """Gate ``current`` rates against the rolling median of the history.

    Per config, the floor is ``median(last window records) * (1 -
    tolerance)``. A single outlier record therefore cannot poison the
    gate the way a single committed baseline can. An empty or missing
    history passes trivially (the first run seeds it).
    """
    records = [
        r for r in load_history(path) if r.get("kind", "interp") == "interp"
    ][-window:]
    by_key: dict = {}
    for record in records:
        for c in record.get("configs", []):
            value = c.get("normalized_fast")
            if isinstance(value, (int, float)):
                by_key.setdefault(
                    (c.get("workload"), c.get("mode"), c.get("bits")), []
                ).append(value)
    failures = []
    for c in current["configs"]:
        key = (c["workload"], c["mode"], c["bits"])
        values = by_key.get(key)
        if not values:
            continue
        median = statistics.median(values)
        floor = median * (1.0 - tolerance)
        if c["normalized_fast"] < floor:
            failures.append(
                f"{key}: normalized fast rate {c['normalized_fast']:.4f} "
                f"is below {floor:.4f} (rolling median of "
                f"{len(values)} record(s) {median:.4f} - {tolerance:.0%})"
            )
    return failures


def check_bench(
    path: Optional[Path] = None,
    reps: int = 3,
    tolerance: float = REGRESSION_TOLERANCE,
    history: Optional[Path] = DEFAULT_HISTORY,
) -> List[str]:
    """Compare current rates against the baseline AND the history median.

    One timing pass feeds both gates. Returns a list of human-readable
    failures (empty = pass). ``history=None`` skips the history gate.
    """
    path = path or DEFAULT_OUTPUT
    baseline = json.loads(path.read_text())
    current = run_bench(reps=reps)
    current_by_key = {
        (c["workload"], c["mode"], c["bits"]): c for c in current["configs"]
    }
    failures = []
    for base in baseline["configs"]:
        key = (base["workload"], base["mode"], base["bits"])
        now = current_by_key[key]
        floor = base["normalized_fast"] * (1.0 - tolerance)
        if now["normalized_fast"] < floor:
            failures.append(
                f"{key}: normalized fast rate {now['normalized_fast']:.4f} "
                f"is below {floor:.4f} "
                f"(committed {base['normalized_fast']:.4f} - {tolerance:.0%})"
            )
    if history is not None:
        failures.extend(check_history(current, history, tolerance=tolerance))
    return failures


def _grid_sample_tuples(run_lists) -> List[tuple]:
    """Flatten per-configuration sample lists into comparable tuples."""
    return [
        (r.wall_ms, r.on_ms, r.active_cycles, r.outages, r.skim_taken, r.error)
        for runs in run_lists
        for r in runs
    ]


def run_grid_bench(reps: int = 3, scale: str = "default") -> dict:
    """Time the Figure-10 grid: interpreter vs replay engine, then the
    content-addressed store cold vs warm.

    Every pass runs the identical serial grid. The interpreter phase
    runs each sample through ``_run_sample``, the golden model, which
    never records; every other pass goes through ``run_benchmark``, on
    the replay engine. Recording is timed as its own phase:
    ``record_s`` is a cold rebuild of every config's commit log, while
    the replay passes then run against *warm* records — one record pass
    serves the whole grid, and the replay passes never re-record
    (regression-tested in ``tests/test_store.py``). The store phases
    both use the replay engine: ``store_cold_s`` computes the grid into
    an empty store (wiped every rep), ``store_warm_s`` reruns it as pure
    cache hits; their ratio is ``store_speedup``. ``REPRO_STORE`` is set
    here for the store phases only, overriding the environment. Sample
    results from every pass are compared field by field; ``identical``
    reports the outcome across both engines *and* the store's cold/warm
    answers.
    """
    import shutil
    import tempfile

    from .experiments.common import (
        ExperimentSetup,
        _run_sample,
        _sample_specs,
        calibrate_environment,
        measure_precise_cycles,
        run_benchmark,
        worker_build,
        worker_workload,
    )
    from .store.cas import STORE_ENV

    score = machine_score()
    setup = ExperimentSetup(scale=scale)

    def grid(name: str, runtime: str):
        """The grid's workload and its interpreter and replay passes."""
        workload = worker_workload(name, scale)
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        configs = [("precise", None), (workload.technique, 8), (workload.technique, 4)]

        def interp_pass():
            return [
                [_run_sample(spec) for spec in _sample_specs(
                    workload, mode, bits, runtime, setup, environment, None,
                )]
                for mode, bits in configs
            ]

        def replay_pass():
            return [
                run_benchmark(workload, mode, bits, runtime, setup, environment).runs
                for mode, bits in configs
            ]

        return workload, configs, interp_pass, replay_pass

    workload, configs, interp_pass, replay_pass = grid(GRID_WORKLOAD, GRID_RUNTIME)
    samples = len(configs) * setup.trace_count * setup.invocations

    def build_records():
        # A fresh log per config each rep, beside the kernel the warm-up
        # pass cached, so the replay passes find it.
        for mode, bits in configs:
            worker_build(workload, mode, bits).record = None
            worker_build(workload, mode, bits, recorded=True)

    saved_store = os.environ.pop(STORE_ENV, None)
    try:
        replay_pass()  # warm the shared workload/kernel/trace/record caches
        interp_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            interp_runs = interp_pass()
            interp_times.append(time.perf_counter() - start)

        record_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            build_records()
            record_times.append(time.perf_counter() - start)

        replay_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            replay_runs = replay_pass()
            replay_times.append(time.perf_counter() - start)

        # Store phases: cold evaluates the grid into an empty store,
        # warm serves it back as pure hits. The last cold rep leaves the
        # store full.
        store_dir = tempfile.mkdtemp(prefix="repro-grid-store-")
        os.environ[STORE_ENV] = store_dir
        try:
            store_cold_times: List[float] = []
            for _ in range(reps):
                shutil.rmtree(store_dir, ignore_errors=True)
                start = time.perf_counter()
                store_cold_runs = replay_pass()
                store_cold_times.append(time.perf_counter() - start)
            store_warm_times: List[float] = []
            for _ in range(reps):
                start = time.perf_counter()
                store_warm_runs = replay_pass()
                store_warm_times.append(time.perf_counter() - start)
        finally:
            del os.environ[STORE_ENV]
            shutil.rmtree(store_dir, ignore_errors=True)

        # NN-inference cross-check: the same three-config grid on the
        # MLP classifier under the progress runtime, one untimed pass
        # per engine, with the store off so each engine computes.
        # Gated on bit-identity (full SampleRun equality, accuracy field
        # included); excluded from the timing history.
        _, _, nn_interp_pass, nn_replay_pass = grid(
            NN_GRID_WORKLOAD, NN_GRID_RUNTIME
        )
        nn_interp = nn_interp_pass()
        nn_replay = nn_replay_pass()
    finally:
        if saved_store is not None:
            os.environ[STORE_ENV] = saved_store

    nn_runs = [run for runs in nn_interp for run in runs]
    nn_identical = nn_runs == [run for runs in nn_replay for run in runs]
    nn_8bit = [
        run.accuracy for run in nn_interp[1] if run.accuracy is not None
    ]
    nn_accuracy = statistics.median(nn_8bit) if nn_8bit else None
    interp_tuples = _grid_sample_tuples(interp_runs)
    identical = (
        interp_tuples == _grid_sample_tuples(replay_runs)
        and interp_tuples == _grid_sample_tuples(store_cold_runs)
        and interp_tuples == _grid_sample_tuples(store_warm_runs)
    )
    interp_s = statistics.median(interp_times)
    record_s = statistics.median(record_times)
    replay_s = statistics.median(replay_times)
    store_cold_s = statistics.median(store_cold_times)
    store_warm_s = statistics.median(store_warm_times)
    return {
        "schema": 4,
        "machine_ops_per_s": round(score, 1),
        "reps": reps,
        "grid": {
            "workload": GRID_WORKLOAD,
            "runtime": GRID_RUNTIME,
            "scale": scale,
            "configs": [{"mode": mode, "bits": bits} for mode, bits in configs],
            "samples": samples,
            "identical": identical,
            "interp_s": round(interp_s, 4),
            "record_s": round(record_s, 4),
            "replay_s": round(replay_s, 4),
            "speedup": round(interp_s / replay_s, 3),
            "interp_samples_per_s": round(samples / interp_s, 2),
            "replay_samples_per_s": round(samples / replay_s, 2),
            "store_cold_s": round(store_cold_s, 4),
            "store_warm_s": round(store_warm_s, 4),
            "store_speedup": round(store_cold_s / store_warm_s, 3),
            # Machine-independent: samples/s per machine-loop op/s.
            "normalized_replay": round(samples / replay_s / score, 9),
        },
        "nn": {
            "workload": NN_GRID_WORKLOAD,
            "runtime": NN_GRID_RUNTIME,
            "samples": len(nn_runs),
            "identical": nn_identical,
            "median_accuracy_8bit": nn_accuracy,
        },
    }


def save_grid_bench(
    payload: dict,
    path: Optional[Path] = None,
    history: Optional[Path] = DEFAULT_HISTORY,
) -> Path:
    """Write the grid payload and append its history record.

    Split from :func:`run_grid_bench` so callers (the CLI smoke) can
    gate on :func:`check_grid_history` *before* a bad run's record
    lands in the history."""
    path = path or DEFAULT_GRID_OUTPUT
    path.write_text(json.dumps(payload, indent=2) + "\n")
    if history is not None:
        append_history(grid_history_record(payload), history)
    return path


def format_grid_bench(payload: dict) -> str:
    """Human summary of a grid bench payload."""
    grid = payload["grid"]
    verdict = "bit-identical" if grid["identical"] else "RESULTS DIVERGED"
    lines = [
        f"{grid['workload']} fig10 grid on {grid['runtime']} "
        f"({grid['samples']} samples, scale={grid['scale']}, "
        f"median of {payload['reps']} reps): {verdict}",
        f"  record  {grid['record_s']:.2f}s cold (shared by the replay passes)",
        f"  interp  {grid['interp_s']:.2f}s "
        f"({grid['interp_samples_per_s']:.0f} samples/s)",
        f"  replay  {grid['replay_s']:.2f}s "
        f"({grid['replay_samples_per_s']:.0f} samples/s, "
        f"{grid['speedup']:.2f}x, normalized {grid['normalized_replay']:.2e})",
    ]
    if grid.get("store_speedup") is not None:
        lines.append(
            f"  store   cold {grid['store_cold_s']:.2f}s -> warm "
            f"{grid['store_warm_s']:.2f}s ({grid['store_speedup']:.1f}x "
            "on cache hits)"
        )
    nn = payload.get("nn")
    if nn is not None:
        nn_verdict = "bit-identical" if nn["identical"] else "RESULTS DIVERGED"
        accuracy = nn.get("median_accuracy_8bit")
        accuracy_txt = "" if accuracy is None else f", 8-bit top-1 {accuracy:.3f}"
        lines.append(
            f"  nn      {nn['workload']} grid on {nn['runtime']} "
            f"({nn['samples']} samples): {nn_verdict}{accuracy_txt}"
        )
    return "\n".join(lines)


def format_bench(payload: dict) -> str:
    """Multi-line human summary of an interpreter bench payload."""
    lines = [
        f"machine score: {payload['machine_ops_per_s']:,.0f} loop-ops/s "
        f"(median of {payload['reps']} reps per config)"
    ]
    for c in payload["configs"]:
        bits = "" if c["bits"] is None else f" {c['bits']}-bit"
        lines.append(
            f"  {c['workload']} {c['mode']}{bits} ({c['instructions']} instrs): "
            f"fast {c['fast_instr_per_s']:,.0f} instr/s, "
            f"reference {c['reference_instr_per_s']:,.0f} instr/s "
            f"-> {c['speedup']:.2f}x (normalized {c['normalized_fast']:.4f})"
        )
    return "\n".join(lines)
