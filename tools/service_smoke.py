#!/usr/bin/env python3
"""CI smoke for the experiment service (docs/SERVICE.md).

Boots ``python -m repro serve`` on a unix socket, submits a small fig10
slice twice, and asserts:

* round 1 computes every configuration (with a level-k progressive
  event arriving before each final result);
* round 2 is pure store hits, byte-identical to round 1;
* round 3 is answered from the server's memory: the same store hits,
  equal to round 2's, with no further store reads (``stats.store_hits``
  grows by one per configuration, ``stats.store.hits`` does not move);
* both match a direct in-process run of the same grid;
* the server's stats agree (computed == configs, no errors), and its
  kernel/record/trace cache holds no more bytes than its budget;
* after a forced SIGKILL + restart (same socket, store and journal),
  the *same client* reconnects and resubmits automatically, the answer
  is byte-identical, and the journal holds no pending accepts;
* ``python -m repro store fsck`` reports the served store clean.

Writes the server's final stats JSON, ``cache`` block included, to
``--out`` for the CI artifact.
Exits non-zero on any violation. Run from the repo root:

    PYTHONPATH=src python tools/service_smoke.py --out store_stats.json
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

GRID = {"scale": "tiny", "trace_count": 3, "invocations": 1,
        "trace_duration_ms": 800}
CONFIGS = [
    {"workload": "MatMul", "mode": "precise", "bits": None},
    {"workload": "MatMul", "mode": "swp", "bits": 8},
    {"workload": "MatMul", "mode": "swp", "bits": 4},
]


def direct_grid():
    """The same slice, run directly on the replay engine (ground truth)."""
    from repro.experiments.common import (
        ExperimentSetup,
        calibrate_environment,
        measure_precise_cycles,
        run_benchmark,
    )
    from repro.workloads import make_workload

    setup = ExperimentSetup(**GRID)
    workload = make_workload("MatMul", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    runs = []
    for config in CONFIGS:
        result = run_benchmark(
            workload, config["mode"], config["bits"], "clank", setup, environment
        )
        runs.append([dataclasses.asdict(r) for r in result.runs])
    return runs


def submit_round(client):
    """Submit every config; returns (sources, runs, progressive counts)."""
    sources, runs, previews = [], [], []
    for config in CONFIGS:
        events = []
        result = client.submit(
            {**config, "runtime": "clank", **GRID},
            full=True, on_event=events.append,
        )
        sources.append(result["source"])
        runs.append(result["runs"])
        previews.append(
            sum(1 for e in events if e.get("event") == "progressive")
        )
    return sources, runs, previews


def spawn_server(socket_path, store_dir, journal_path):
    """One `python -m repro serve` subprocess with the journal armed."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--store", store_dir,
         "--journal", journal_path],
        env={**os.environ, "PYTHONPATH": "src"},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="store_stats.json",
                        help="where to write the server stats artifact")
    args = parser.parse_args()

    from repro.service.client import ServiceClient
    from repro.service.journal import pending_jobs

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        socket_path = os.path.join(tmp, "svc.sock")
        store_dir = os.path.join(tmp, "store")
        journal_path = os.path.join(tmp, "journal.jsonl")
        server = spawn_server(socket_path, store_dir, journal_path)
        client = ServiceClient.connect(
            socket_path, timeout=30, retries=8, backoff=0.1
        )
        try:
            cold_sources, cold_runs, previews = submit_round(client)
            warm_sources, warm_runs, _ = submit_round(client)
            warm_stats = client.stats()
            memo_sources, memo_runs, _ = submit_round(client)
            stats = client.stats()

            # Forced reconnect: SIGKILL the server mid-session, restart
            # it on the same socket + store + journal, and resubmit on
            # the SAME client object — the retry/backoff loop must
            # redial and the answer must be identical (a store hit).
            server.kill()
            server.wait(timeout=30)
            server = spawn_server(socket_path, store_dir, journal_path)
            retry_sources, retry_runs, _ = submit_round(client)
            if retry_sources != ["store"] * len(CONFIGS):
                failures.append(
                    f"post-restart round not pure store hits: {retry_sources}"
                )
            if retry_runs != cold_runs:
                failures.append("post-restart results differ from cold run")
            if pending_jobs(journal_path):
                failures.append("journal left pending accepts after restart")
            client.shutdown()
        finally:
            client.close()
            if server.poll() is None:
                server.kill()
            server.wait(timeout=30)

        if cold_sources != ["computed"] * len(CONFIGS):
            failures.append(f"cold round sources: {cold_sources}")
        if any(n < 1 for n in previews):
            failures.append(f"missing level-k progressive events: {previews}")
        if warm_sources != ["store"] * len(CONFIGS):
            failures.append(f"warm round was not pure cache hits: {warm_sources}")
        if warm_runs != cold_runs:
            failures.append("warm results differ from cold results")
        if memo_sources != ["store"] * len(CONFIGS):
            failures.append(f"memory round was not store hits: {memo_sources}")
        if memo_runs != warm_runs:
            failures.append("memory round results differ from the warm round")
        if stats["store_hits"] - warm_stats["store_hits"] != len(CONFIGS):
            failures.append(
                f"memory round store_hits moved {warm_stats['store_hits']} "
                f"-> {stats['store_hits']} (want +{len(CONFIGS)})"
            )
        if stats["store"]["hits"] != warm_stats["store"]["hits"]:
            failures.append(
                f"memory round read the store: store.hits "
                f"{warm_stats['store']['hits']} -> {stats['store']['hits']}"
            )
        if cold_runs != direct_grid():
            failures.append("service results differ from a direct serial run")
        if stats["computed"] != len(CONFIGS) or stats["errors"]:
            failures.append(f"unexpected scheduler stats: {stats}")
        if stats["store"]["entries"] != len(CONFIGS):
            failures.append(f"unexpected store stats: {stats['store']}")
        if stats["cache"]["bytes"] > stats["cache"]["budget"]:
            failures.append(f"cache over its byte budget: {stats['cache']}")

        # The store the service just wrote must pass fsck clean.
        fsck = subprocess.run(
            [sys.executable, "-m", "repro", "store", "fsck",
             "--store", store_dir],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        if fsck.returncode != 0:
            failures.append("store fsck found defects in a served store")

        with open(args.out, "w", encoding="utf-8") as file:
            json.dump(stats, file, indent=2)
        print(f"service stats -> {args.out}: {json.dumps(stats)}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"service smoke passed: {len(CONFIGS)} configs computed once, "
              "resubmission served from the store, then from memory, "
              "forced reconnect resumed cleanly, fsck clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
