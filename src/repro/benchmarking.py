"""Interpreter speed harness: fast pre-decoded CPU vs. the reference.

Times both interpreters end-to-end on three representative builds —
MatMul precise (the pure-ALU/MUL baseline), MatMul SWP 8-bit (subword
multiplies + skim points) and Home SWV 8-bit (the vector-add technique)
— and records instructions/second for each, the fast/reference speedup,
and a machine-normalized rate.

Normalization: absolute instr/s numbers are machine-dependent, so the
harness first times a fixed pure-Python integer loop (the "machine
score") and stores each rate divided by it. The CI speed smoke
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
from typing import List, Optional

from .core import AnytimeConfig, AnytimeKernel
from .sim import ReferenceCPU
from .workloads import make_workload

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


def machine_score() -> float:
    """Iterations/second of a fixed integer loop — the machine baseline."""
    mask = 0xFFFFFFFF
    acc = 0
    start = time.perf_counter()
    for i in range(_MACHINE_LOOP_ITERS):
        acc = (acc + i * i) & mask
    elapsed = time.perf_counter() - start
    return _MACHINE_LOOP_ITERS / elapsed


def _measure_rate(kernel: AnytimeKernel, inputs, cpu_cls, reps: int) -> float:
    """Median instructions/second over ``reps`` full runs."""
    rates: List[float] = []
    for _ in range(reps):
        cpu = kernel.make_cpu(inputs, cpu_cls=cpu_cls)
        start = time.perf_counter()
        cpu.run()
        elapsed = time.perf_counter() - start
        rates.append(cpu.stats.instructions / elapsed)
    return statistics.median(rates)


def run_bench(reps: int = 5, scale: str = "default") -> dict:
    """Time every config; returns the BENCH_interp.json payload."""
    score = machine_score()
    configs = []
    for name, mode, bits in BENCH_CONFIGS:
        workload = make_workload(name, scale)
        kernel = AnytimeKernel(workload.kernel, AnytimeConfig(mode=mode, bits=bits))
        probe = kernel.make_cpu(workload.inputs)
        probe.run()
        instructions = probe.stats.instructions

        fast = _measure_rate(kernel, workload.inputs, type(probe), reps)
        ref = _measure_rate(kernel, workload.inputs, ReferenceCPU, reps)
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
                # Machine-independent: fast instr/s per machine-loop op/s.
                "normalized_fast": round(fast / score, 6),
            }
        )
    return {
        "schema": 1,
        "machine_ops_per_s": round(score, 1),
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


def _grid_sample_tuples(results) -> List[tuple]:
    """Flatten BenchmarkResults into comparable per-sample tuples."""
    return [
        (r.wall_ms, r.on_ms, r.active_cycles, r.outages, r.skim_taken, r.error)
        for result in results
        for r in result.runs
    ]


def run_grid_bench(reps: int = 3, scale: str = "default") -> dict:
    """Time the Figure-10 grid: interpreter vs replay engine, then the
    content-addressed store cold vs warm.

    All passes run the identical serial grid (``REPRO_JOBS``,
    ``REPRO_REPLAY`` and ``REPRO_STORE`` are controlled here, overriding
    the environment). Recording is timed as its own phase: ``record_s``
    is a cold rebuild of every config's commit log, while the replay
    passes then run against *warm* records — one record pass serves the
    whole grid, and the replay passes never re-record
    (regression-tested in ``tests/test_store.py``). The store phases
    both use the replay engine: ``store_cold_s`` computes the grid into
    an empty store
    (wiped every rep), ``store_warm_s`` reruns it as pure cache hits;
    their ratio is ``store_speedup``. Sample results from every pass
    are compared field by field; ``identical`` reports the outcome
    across all engines *and* the store's cold/warm answers.
    """
    import shutil
    import tempfile

    from .experiments.common import (
        ExperimentSetup,
        _cache_record,
        _worker_cache,
        build_anytime,
        calibrate_environment,
        measure_precise_cycles,
        run_benchmark_suite,
    )
    from .sim.replay import record_run
    from .store.cas import STORE_ENV

    score = machine_score()
    setup = ExperimentSetup(scale=scale)
    workload = make_workload(GRID_WORKLOAD, scale)
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    reference = workload.decoded_reference()
    configs = [("precise", None), (workload.technique, 8), (workload.technique, 4)]
    samples = len(configs) * setup.trace_count * setup.invocations

    def one_pass():
        return run_benchmark_suite(
            workload, configs, GRID_RUNTIME, setup, environment, reference
        )

    def build_records():
        # A fresh log per config each rep, paired with the kernel the
        # warm-up pass cached, so the replay passes find it.
        for mode, bits in configs:
            kkey = (workload.name, workload.scale, mode, bits)
            entry = _worker_cache.get(kkey)
            kernel = (
                build_anytime(workload, mode, bits) if entry is None
                else entry.kernel
            )
            _cache_record(kkey, kernel, record_run(kernel, workload.inputs))

    saved = {
        key: os.environ.pop(key, None)
        for key in ("REPRO_REPLAY", "REPRO_JOBS", STORE_ENV)
    }
    try:
        one_pass()  # warm the shared workload/kernel/trace caches
        interp_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            interp_results = one_pass()
            interp_times.append(time.perf_counter() - start)

        record_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            build_records()
            record_times.append(time.perf_counter() - start)

        os.environ["REPRO_REPLAY"] = "1"
        replay_times: List[float] = []
        for _ in range(reps):
            start = time.perf_counter()
            replay_results = one_pass()
            replay_times.append(time.perf_counter() - start)

        # Store phases, both on the replay engine (still REPRO_REPLAY=1):
        # cold evaluates the grid into an empty store, warm serves it
        # back as pure hits. The last cold rep leaves the store full.
        store_dir = tempfile.mkdtemp(prefix="repro-grid-store-")
        os.environ[STORE_ENV] = store_dir
        try:
            store_cold_times: List[float] = []
            for _ in range(reps):
                shutil.rmtree(store_dir, ignore_errors=True)
                start = time.perf_counter()
                store_cold_results = one_pass()
                store_cold_times.append(time.perf_counter() - start)
            store_warm_times: List[float] = []
            for _ in range(reps):
                start = time.perf_counter()
                store_warm_results = one_pass()
                store_warm_times.append(time.perf_counter() - start)
        finally:
            del os.environ[STORE_ENV]
            shutil.rmtree(store_dir, ignore_errors=True)

        # NN-inference cross-check: the same three-config grid on the
        # MLP classifier under the progress runtime, one untimed pass
        # per engine, with the store off so each engine computes.
        # Gated on bit-identity (full SampleRun equality, accuracy field
        # included); excluded from the timing history.
        del os.environ["REPRO_REPLAY"]
        nn_workload = make_workload(NN_GRID_WORKLOAD, scale)
        nn_environment = calibrate_environment(
            measure_precise_cycles(nn_workload), setup
        )
        nn_reference = nn_workload.decoded_reference()
        nn_configs = [
            ("precise", None),
            (nn_workload.technique, 8),
            (nn_workload.technique, 4),
        ]

        def nn_pass():
            return run_benchmark_suite(
                nn_workload, nn_configs, NN_GRID_RUNTIME, setup,
                nn_environment, nn_reference,
            )

        nn_interp = nn_pass()
        os.environ["REPRO_REPLAY"] = "1"
        nn_replay = nn_pass()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    nn_runs = [run for result in nn_interp for run in result.runs]
    nn_identical = nn_runs == [run for result in nn_replay for run in result.runs]
    nn_accuracy = next(
        (r.median_accuracy for r in nn_interp if r.bits == 8), None
    )
    interp_tuples = _grid_sample_tuples(interp_results)
    identical = (
        interp_tuples == _grid_sample_tuples(replay_results)
        and interp_tuples == _grid_sample_tuples(store_cold_results)
        and interp_tuples == _grid_sample_tuples(store_warm_results)
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


def write_grid_bench(
    path: Optional[Path] = None,
    reps: int = 3,
    scale: str = "default",
    history: Optional[Path] = DEFAULT_HISTORY,
) -> dict:
    payload = run_grid_bench(reps=reps, scale=scale)
    save_grid_bench(payload, path, history)
    return payload


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
