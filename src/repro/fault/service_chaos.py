"""Host-level chaos for the experiment service.

The device-level chaos engine (:mod:`repro.fault.campaign`) attacks the
*simulated machine*; this module attacks the *host*: real subprocess
servers are SIGKILLed at the journal's three nasty boundaries
(post-ack before compute, mid-compute, post-store before the done
marker), journal and store files are torn or tampered between boots,
and wire bytes are corrupted or fragmented on a live connection.

The oracle is end-to-end and unconditional: after every scenario the
resubmitted job must yield per-sample runs **byte-identical** to a
direct in-process run of the same configuration on the replay engine,
the journal must drain to zero pending accepts (no lost jobs), and the
store must hold exactly one entry for the configuration (no
duplicates). Everything is seeded — scenario kinds, kill points, tear
shapes, garbage bytes and fragment counts all come from one
``random.Random(seed)`` — and the campaign report carries no
timestamps or timings, so the same seed reproduces a byte-identical
report.

Run it via ``python -m repro chaos --service`` (docs/ROBUSTNESS.md has
the fault model; docs/SERVICE.md has the recovery semantics under
test).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ReproError, ServiceError
from ..service.client import ServiceClient
from ..service.journal import pending_jobs
from ..service.jobs import compute, prepare
from ..service.protocol import JobSpec, encode_message
from ..service.server import CHAOS_ENV, CHAOS_POINTS
from ..store.cas import ResultStore

__all__ = [
    "SERVICE_CONFIGS",
    "SERVICE_SCENARIO_KINDS",
    "generate_service_scenarios",
    "run_service_campaign",
    "run_service_scenario",
    "service_report_to_json",
]

#: The configuration pool scenarios draw from: small tiny-scale jobs
#: spanning precise/SWP/SWV modes and two runtimes, so the oracle
#: exercises distinct code paths while each compute stays fast.
SERVICE_CONFIGS = (
    {"workload": "MatMul", "mode": "precise", "bits": None, "runtime": "clank"},
    {"workload": "MatMul", "mode": "swp", "bits": 8, "runtime": "clank"},
    {"workload": "Home", "mode": "swv", "bits": 8, "runtime": "clank"},
    {"workload": "Home", "mode": "swv", "bits": 4, "runtime": "nvp"},
)

#: Grid shape every scenario job uses (kept tiny: the campaign spawns
#: real subprocess servers, so per-job compute must be sub-second).
SERVICE_GRID = {
    "scale": "tiny",
    "trace_count": 2,
    "invocations": 1,
    "trace_duration_ms": 800,
    "trace_seed": 100,
}

#: Scenario families. ``kill`` SIGKILLs the server at one of the three
#: journal boundaries; ``torn-journal`` kills post-ack then tears the
#: journal tail; ``torn-store`` tampers a committed store entry and
#: checks ``fsck --repair`` heals it; the ``wire-*`` kinds attack the
#: protocol framing on a live connection.
SERVICE_SCENARIO_KINDS = (
    "kill",
    "torn-journal",
    "torn-store",
    "wire-corrupt",
    "wire-fragment",
)

# Kill scenarios are the tentpole, so they dominate the draw.
_KIND_WEIGHTS = ("kill",) * 6 + (
    "torn-journal",
    "torn-journal",
    "torn-store",
    "wire-corrupt",
    "wire-fragment",
)


def generate_service_scenarios(seed: int, count: int) -> List[dict]:
    """The deterministic scenario list for one campaign.

    Every random choice a scenario needs at execution time (kill point,
    tear shape, garbage bytes, fragment count) is drawn here, so
    executing the list is fully determined by the seed."""
    rng = random.Random(seed)
    scenarios: List[dict] = []
    for index in range(count):
        kind = rng.choice(_KIND_WEIGHTS)
        scenario: Dict[str, object] = {
            "index": index,
            "kind": kind,
            "config": rng.randrange(len(SERVICE_CONFIGS)),
        }
        if kind == "kill":
            scenario["point"] = rng.choice(CHAOS_POINTS)
            scenario["jobs"] = 2 if rng.random() < 0.25 else None
        elif kind == "torn-journal":
            scenario["point"] = "post-ack"
            scenario["tear"] = rng.choice(("truncate", "garbage"))
        elif kind == "torn-store":
            scenario["tear"] = rng.choice(("truncate", "tamper"))
        elif kind == "wire-corrupt":
            garbage = [
                byte
                for byte in (
                    rng.randrange(256) for _ in range(rng.randrange(8, 48))
                )
                if byte != 0x0A
            ]
            scenario["garbage"] = garbage or [0x7B]
        elif kind == "wire-fragment":
            scenario["fragments"] = rng.randrange(2, 7)
        scenarios.append(scenario)
    return scenarios


def _scenario_job(scenario: dict) -> dict:
    """The submit payload for one scenario's configuration."""
    return {**SERVICE_CONFIGS[scenario["config"]], **SERVICE_GRID}


def _config_desc(config: dict) -> str:
    """Stable human-readable label for one configuration."""
    bits = config["bits"]
    return (
        f"{config['workload']}/{config['mode']}"
        f"{'' if bits is None else bits}/{config['runtime']}"
    )


_golden_cache: Dict[int, dict] = {}


def golden_payload(config_index: int) -> dict:
    """The direct in-process result for one configuration (cached).

    Uses the exact :mod:`repro.service.jobs` prepare/compute pair the
    server itself runs — the engine differential suite guarantees this
    equals a serial CLI run — so "byte-identical to the golden" means
    byte-identical to a direct run of the same configuration."""
    payload = _golden_cache.get(config_index)
    if payload is None:
        spec = JobSpec.from_dict(
            {**SERVICE_CONFIGS[config_index], **SERVICE_GRID}
        )
        payload = compute(prepare(spec))
        _golden_cache[config_index] = payload
    return payload


def _spawn_server(
    socket_path: Path,
    store_dir: Path,
    journal_path: Path,
    chaos: Optional[str] = None,
    jobs: Optional[int] = None,
) -> subprocess.Popen:
    """Launch one ``python -m repro serve`` subprocess.

    The child's environment is scrubbed of every knob that could leak
    in from the campaign host (store/journal/chaos/faults), then the
    scenario's own chaos point and worker count are set explicitly."""
    import repro

    env = {
        key: value
        for key, value in os.environ.items()
        if key
        not in (
            CHAOS_ENV,
            "REPRO_STORE",
            "REPRO_JOURNAL_FSYNC",
            "REPRO_JOBS",
            "REPRO_FAULTS",
        )
    }
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    if chaos is not None:
        env[CHAOS_ENV] = chaos
    if jobs is not None:
        env["REPRO_JOBS"] = str(jobs)
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--socket",
        str(socket_path),
        "--store",
        str(store_dir),
        "--journal",
        str(journal_path),
    ]
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stop_server(server: subprocess.Popen) -> None:
    """Best-effort teardown for a scenario server."""
    if server.poll() is None:
        server.kill()
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - defensive
        pass


def _await_drained(client: ServiceClient, deadline_s: float = 60.0) -> bool:
    """Poll server stats until the journal has no pending accepts and
    no job is in flight (the no-lost-jobs oracle)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        stats = client.stats()
        journal = stats.get("journal") or {}
        if not journal.get("pending") and not stats.get("inflight"):
            return True
        time.sleep(0.1)
    return False


def _store_entry_count(store_dir: Path) -> int:
    """How many committed entries the scenario store holds."""
    return len(list(store_dir.glob("*/*.json")))


def _violation(scenario: dict, check: str, detail: str) -> dict:
    """One oracle violation record for the campaign report."""
    return {
        "index": scenario["index"],
        "kind": scenario["kind"],
        "config": _config_desc(SERVICE_CONFIGS[scenario["config"]]),
        "check": check,
        "detail": detail,
    }


def _check_result(
    scenario: dict, result: dict, violations: List[dict], label: str
) -> None:
    """Assert one ``submit --full`` result equals the direct golden."""
    golden = golden_payload(scenario["config"])
    if result.get("runs") != golden["runs"]:
        violations.append(
            _violation(
                scenario,
                "identical-result",
                f"{label}: per-sample runs differ from the direct run",
            )
        )
    elif result.get("metrics") != golden["metrics"]:
        violations.append(
            _violation(
                scenario,
                "identical-result",
                f"{label}: summary metrics differ from the direct run",
            )
        )


def _resubmit_and_verify(
    scenario: dict,
    socket_path: Path,
    store_dir: Path,
    violations: List[dict],
) -> None:
    """The shared post-recovery oracle: resubmit through the resilient
    client, then check result identity, journal drain and store count."""
    with ServiceClient.connect(
        str(socket_path),
        timeout=30.0,
        read_timeout=120.0,
        retries=8,
        backoff=0.05,
    ) as client:
        result = client.submit(_scenario_job(scenario), full=True)
        _check_result(scenario, result, violations, "after recovery")
        if not _await_drained(client):
            violations.append(
                _violation(
                    scenario,
                    "no-lost-jobs",
                    "journal never drained to zero pending accepts",
                )
            )
        entries = _store_entry_count(store_dir)
        if entries != 1:
            violations.append(
                _violation(
                    scenario,
                    "no-duplicates",
                    f"{entries} store entries for one configuration (want 1)",
                )
            )
        client.shutdown()


def _tear_journal(journal_path: Path, tear: str) -> None:
    """Apply one journal tear: chop the tail or append torn garbage."""
    if tear == "truncate":
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[: max(0, len(data) - 9)])
    else:
        with journal_path.open("ab") as handle:
            handle.write(b'{"rec":"accept","seq":99,"fingerprint":"feed')


def _tamper_store_entry(entry: Path, tear: str) -> None:
    """Corrupt one committed store entry (torn tail or silent bit rot)."""
    if tear == "truncate":
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
    else:
        payload = json.loads(entry.read_text())
        payload["runs"][0]["wall_ms"] = payload["runs"][0]["wall_ms"] + 1.0
        entry.write_text(json.dumps(payload))


def _read_line(sock: socket.socket) -> bytes:
    """Read one ``\\n``-terminated line without buffering past it, so a
    later :class:`~repro.service.client.ServiceClient` can safely adopt
    the same socket."""
    chunks: List[bytes] = []
    while True:
        byte = sock.recv(1)
        if not byte:
            return b"".join(chunks)
        chunks.append(byte)
        if byte == b"\n":
            return b"".join(chunks)


def _run_kill_scenario(
    scenario: dict,
    socket_path: Path,
    store_dir: Path,
    journal_path: Path,
    violations: List[dict],
) -> None:
    """Kill the server at a journal boundary, then recover and verify."""
    point = scenario["point"]
    server = _spawn_server(
        socket_path,
        store_dir,
        journal_path,
        chaos=point,
        jobs=scenario.get("jobs"),
    )
    try:
        try:
            with ServiceClient.connect(
                str(socket_path), timeout=30.0, read_timeout=120.0
            ) as client:
                client.submit(_scenario_job(scenario), full=True, retries=0)
            violations.append(
                _violation(
                    scenario, "kill", f"server survived its {point} kill point"
                )
            )
            return
        except (ServiceError, OSError):
            pass
        server.wait(timeout=60)
        pending = pending_jobs(str(journal_path))
        if len(pending) != 1:
            violations.append(
                _violation(
                    scenario,
                    "durable-accept",
                    f"{len(pending)} pending accepts after {point} kill "
                    "(want 1: the accept must hit the journal before "
                    "compute starts)",
                )
            )
            return
        if scenario["kind"] == "torn-journal":
            _tear_journal(journal_path, scenario["tear"])
    finally:
        _stop_server(server)

    server = _spawn_server(socket_path, store_dir, journal_path)
    try:
        _resubmit_and_verify(scenario, socket_path, store_dir, violations)
    finally:
        _stop_server(server)


def _run_torn_store_scenario(
    scenario: dict,
    socket_path: Path,
    store_dir: Path,
    journal_path: Path,
    violations: List[dict],
) -> None:
    """Commit a result, corrupt it on disk, and verify ``fsck --repair``
    quarantines the defect so a resubmission recomputes the truth."""
    server = _spawn_server(socket_path, store_dir, journal_path)
    try:
        with ServiceClient.connect(
            str(socket_path), timeout=30.0, read_timeout=120.0
        ) as client:
            result = client.submit(_scenario_job(scenario), full=True)
            _check_result(scenario, result, violations, "before corruption")
            client.shutdown()
    finally:
        _stop_server(server)

    entries = sorted(store_dir.glob("*/*.json"))
    if len(entries) != 1:
        violations.append(
            _violation(
                scenario,
                "no-duplicates",
                f"{len(entries)} store entries before corruption (want 1)",
            )
        )
        return
    _tamper_store_entry(entries[0], scenario["tear"])

    store = ResultStore(store_dir)
    report = store.fsck(repair=True)
    if report["defect_count"] != 1:
        violations.append(
            _violation(
                scenario,
                "fsck-detect",
                f"fsck saw {report['defect_count']} defects after a "
                f"{scenario['tear']} corruption (want 1)",
            )
        )
    if not store.fsck()["clean"]:
        violations.append(
            _violation(
                scenario, "fsck-repair", "store still dirty after --repair"
            )
        )

    server = _spawn_server(socket_path, store_dir, journal_path)
    try:
        _resubmit_and_verify(scenario, socket_path, store_dir, violations)
    finally:
        _stop_server(server)


def _run_wire_scenario(
    scenario: dict,
    socket_path: Path,
    store_dir: Path,
    journal_path: Path,
    violations: List[dict],
) -> None:
    """Attack the protocol framing on a live connection and verify the
    server answers with a typed error (corrupt) or reassembles the
    request (fragment), then still serves the job correctly."""
    server = _spawn_server(socket_path, store_dir, journal_path)
    try:
        sock = ServiceClient._open_socket(str(socket_path), "", None, 30.0)
        sock.settimeout(120.0)
        try:
            if scenario["kind"] == "wire-corrupt":
                sock.sendall(bytes(scenario["garbage"]) + b"\n")
                line = _read_line(sock)
                try:
                    event = json.loads(line)
                except ValueError:
                    event = {}
                if event.get("event") != "error":
                    violations.append(
                        _violation(
                            scenario,
                            "wire-error",
                            "garbage line did not produce an error event",
                        )
                    )
                client = ServiceClient(sock, read_timeout=120.0)
                result = client.submit(
                    _scenario_job(scenario), full=True, retries=0
                )
                _check_result(scenario, result, violations, "after garbage")
            else:
                line = encode_message(
                    {
                        "op": "submit",
                        "id": 1,
                        "job": _scenario_job(scenario),
                        "full": True,
                    }
                )
                pieces = scenario["fragments"]
                cuts = [len(line) * i // pieces for i in range(pieces + 1)]
                for start, end in zip(cuts, cuts[1:]):
                    sock.sendall(line[start:end])
                    time.sleep(0.002)
                result = None
                while result is None:
                    event = json.loads(_read_line(sock))
                    if event.get("event") == "error":
                        violations.append(
                            _violation(
                                scenario,
                                "wire-reassembly",
                                f"fragmented submit rejected: "
                                f"{event.get('error')}",
                            )
                        )
                        return
                    if event.get("event") == "result":
                        result = event
                _check_result(
                    scenario, result, violations, "after fragmentation"
                )
        finally:
            sock.close()
        with ServiceClient.connect(
            str(socket_path), timeout=30.0, read_timeout=120.0
        ) as client:
            if not _await_drained(client):
                violations.append(
                    _violation(
                        scenario,
                        "no-lost-jobs",
                        "journal never drained after the wire attack",
                    )
                )
            client.shutdown()
    finally:
        _stop_server(server)


def run_service_scenario(scenario: dict, workdir: Path) -> List[dict]:
    """Execute one scenario in its own directory; returns violations.

    ``workdir`` must be empty or absent; it is created, used for the
    scenario's socket, store and journal, and removed afterwards."""
    workdir.mkdir(parents=True, exist_ok=True)
    socket_path = workdir / "svc.sock"
    store_dir = workdir / "store"
    journal_path = workdir / "journal.jsonl"
    violations: List[dict] = []
    try:
        if scenario["kind"] in ("kill", "torn-journal"):
            _run_kill_scenario(
                scenario, socket_path, store_dir, journal_path, violations
            )
        elif scenario["kind"] == "torn-store":
            _run_torn_store_scenario(
                scenario, socket_path, store_dir, journal_path, violations
            )
        else:
            _run_wire_scenario(
                scenario, socket_path, store_dir, journal_path, violations
            )
    except (ReproError, OSError, subprocess.SubprocessError, ValueError) as exc:
        violations.append(
            _violation(scenario, "scenario-crash", f"{type(exc).__name__}: {exc}")
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return violations


def run_service_campaign(
    seed: int = 1234,
    count: int = 50,
    workdir: Optional[Path] = None,
    progress: Optional[callable] = None,
) -> dict:
    """Run one seeded host-level chaos campaign; returns the report.

    The report is deterministic for a given seed and count — scenario
    kinds, kill points and tear shapes all derive from the seed, and no
    wall-clock data is recorded — so re-running the campaign must
    produce byte-identical JSON (that determinism is itself asserted by
    the CI smoke). ``progress(index, total, scenario)`` is called
    before each scenario for live feedback."""
    scenarios = generate_service_scenarios(seed, count)
    base = Path(tempfile.mkdtemp(prefix="repro-service-chaos-")) if workdir is None else Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    violations: List[dict] = []
    kinds: Dict[str, int] = {}
    points: Dict[str, int] = {}
    try:
        for scenario in scenarios:
            if progress is not None:
                progress(scenario["index"], len(scenarios), scenario)
            kinds[scenario["kind"]] = kinds.get(scenario["kind"], 0) + 1
            if "point" in scenario:
                point = scenario["point"]
                points[point] = points.get(point, 0) + 1
            violations.extend(
                run_service_scenario(
                    scenario, base / f"scenario-{scenario['index']:04d}"
                )
            )
    finally:
        if workdir is None:
            shutil.rmtree(base, ignore_errors=True)
    return {
        "seed": seed,
        "scenarios": len(scenarios),
        "configs": [_config_desc(config) for config in SERVICE_CONFIGS],
        "grid": dict(SERVICE_GRID),
        "kinds": {key: kinds[key] for key in sorted(kinds)},
        "kill_points": {key: points[key] for key in sorted(points)},
        "violation_count": len(violations),
        "violations": violations,
        "passed": not violations,
    }


def service_report_to_json(report: dict) -> str:
    """The canonical (byte-stable) JSON rendering of one report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
