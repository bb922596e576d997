"""The content-addressed result store (``REPRO_STORE``).

A **global cache shared across runs and entry points**: every finished
configuration — a ``(workload, scale, mode, bits, runtime, grid shape,
calibrated environment)`` tuple — is keyed by the sha256 of its
canonical JSON description and stored under
``<root>/<aa>/<fingerprint>.json``. ``python -m repro run``, the figure
experiments, ``bench --grid``'s warm phase and the experiment service
(:mod:`repro.service`) all read and write the same store, so a
configuration is never evaluated twice anywhere on a machine.

Design rules (docs/SERVICE.md spells them out):

* **Engine-irrelevant keys.** The execution engine (interpreter /
  replay / batch), ``REPRO_JOBS`` and the observability sinks never
  enter the fingerprint: all of them are bit-identical by contract
  (enforced in ``tests/test_batch_replay.py``), so a result computed
  under any of them can be served to all of them.
* **Self-invalidating keys.** The package version and
  :data:`RESULT_SCHEMA_VERSION` are fingerprint inputs, so upgrading
  the code or the result schema silently routes around stale entries
  instead of serving them (``tests/test_store.py`` regression-tests
  the forced recompute).
* **Atomic, torn-tolerant files.** Writes go to a uniquely named temp
  file in the same directory and ``os.replace`` into place — the same
  discipline the intermittent runtimes under test use for their
  two-phase commits. A torn, truncated or foreign file loads as a
  miss and is recomputed, never trusted.
* **Chaos excluded by design.** ``REPRO_FAULTS`` runs swap in
  adversarial power traces whose purpose is to *stress recompute
  paths*; caching them would be both pointless and misleading, so
  :func:`repro.experiments.common.experiment_store` disables the store
  whenever the faults knob is armed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Version of the stored result payload. Bump when the meaning or shape
#: of a SampleRun / metrics / ledger rollup changes: the bump flows into
#: every fingerprint, so all existing cache entries become unreachable
#: and recompute — stale caches self-invalidate instead of serving
#: old-shape data.
#: v3: entries carry a content checksum (fsck). v4: replayed samples
#: book post-skim re-execution as ``reexec`` (as the interpreter does)
#: and count as ``engine.replay``.
RESULT_SCHEMA_VERSION = 4

#: Environment variable naming the store's root directory.
STORE_ENV = "REPRO_STORE"


def code_schema_tag() -> str:
    """The ``<package version>/<result schema>`` stamp fingerprints embed.

    Read lazily (module attributes, not bound constants) so tests can
    monkeypatch :data:`RESULT_SCHEMA_VERSION` and observe the forced
    recompute."""
    from .. import __version__

    import repro.store.cas as _cas

    return f"{__version__}/{_cas.RESULT_SCHEMA_VERSION}"


def config_fingerprint(
    workload: str,
    scale: Optional[str],
    mode: str,
    bits: Optional[int],
    runtime: str,
    setup,
    environment,
    reference=None,
) -> str:
    """Sha256 identity of one configuration's full sample grid.

    Everything that determines the grid's samples feeds the digest:
    the workload identity, the anytime build, the runtime policy, the
    grid shape (traces x invocations, durations, seeds, wall budget),
    the calibrated power environment, an explicit reference vector (if
    the caller overrode the workload default) and the code/schema
    version. Engines, job counts and observability sinks are *absent*
    on purpose — they are bit-identical by contract.
    """
    reference_digest = None
    if reference is not None:
        reference_digest = hashlib.sha256(
            json.dumps(list(reference)).encode()
        ).hexdigest()
    material = {
        "code": code_schema_tag(),
        "workload": workload,
        "scale": scale,
        "mode": mode,
        "bits": bits,
        "runtime": runtime,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "trace_duration_ms": setup.trace_duration_ms,
        "trace_seed": setup.trace_seed,
        "max_wall_ms": setup.max_wall_ms,
        "capacitor_f": environment.capacitor_f,
        "watchdog_cycles": environment.watchdog_cycles,
        "reference": reference_digest,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_payload(
    fingerprint: str,
    config: dict,
    runs: List[dict],
    metrics: Optional[dict] = None,
    ledger: Optional[dict] = None,
) -> dict:
    """The on-disk value for one configuration.

    ``runs`` is the full sample list (every field, metrics and ledger
    included); ``metrics`` and ``ledger`` are the *merged*
    per-configuration rollups, stored alongside so ``repro report
    --live`` renders without re-merging.
    The embedded ``checksum`` pins the content for ``store fsck``."""
    payload = {
        "schema": RESULT_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "config": config,
        "runs": runs,
        "metrics": metrics,
        "ledger": ledger,
    }
    payload["checksum"] = payload_checksum(payload)
    return payload


def payload_checksum(payload: dict) -> str:
    """Sha256 of an entry's *content* (config, runs, metrics, ledger).

    Stored in the entry as ``checksum`` by :meth:`ResultStore.put`.
    The fingerprint names *which configuration* an entry answers for;
    the checksum pins *what the answer is*, so silent on-disk
    corruption that still parses as JSON is detectable. Verified by
    ``python -m repro store fsck`` (the hot ``load`` path only does the
    cheap structural checks — torn/foreign/stale entries — by design)."""
    body = {
        key: payload.get(key) for key in ("config", "runs", "metrics", "ledger")
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Defect categories ``fsck`` can report, in severity order.
FSCK_DEFECTS = (
    "torn",               # unparseable JSON (crash mid-write without rename)
    "malformed",          # parses, but is not an entry-shaped object
    "foreign",            # embedded fingerprint disagrees with the filename
    "stale_schema",       # written by a different RESULT_SCHEMA_VERSION
    "checksum_mismatch",  # content digest absent or wrong (bit rot)
    "misplaced",          # entry filed under the wrong shard directory
)

#: Process-unique suffix counter for temp files: two writers in one
#: process (service worker threads) must never share a temp path.
_tmp_counter = itertools.count()


class ResultStore:
    """One content-addressed store rooted at a directory.

    Instances are cheap (no index is held in memory — the filesystem
    *is* the index) and safe to use from many processes at once: reads
    tolerate concurrent writes, and writes are atomic renames, so a
    reader sees either the complete old entry or the complete new one,
    never a torn file. The per-instance ``hits``/``misses``/``writes``
    counters feed the service's stats endpoint and the CI smoke.
    """

    def __init__(self, root: str) -> None:
        """Attach to (and lazily create) the store rooted at ``root``."""
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(self, fingerprint: str) -> Path:
        """Entry path: two-hex-char shard directory + full fingerprint."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> Optional[dict]:
        """The stored payload for a fingerprint, or ``None`` (a miss).

        Any defect — missing file, torn/truncated JSON, a payload whose
        embedded fingerprint or schema disagrees with its name — is a
        miss: the configuration simply recomputes and overwrites."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as file:
                payload = json.load(file)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != RESULT_SCHEMA_VERSION
            or payload.get("fingerprint") != fingerprint
            or not isinstance(payload.get("runs"), list)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, fingerprint: str, payload: dict) -> Path:
        """Persist one payload atomically (unique temp file + rename).

        Concurrent writers of the same fingerprint are safe: each works
        on its own temp file and the last rename wins — and since the
        fingerprint pins the content, "last" and "first" are
        byte-identical anyway (asserted in ``tests/test_store.py``)."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = path.parent / (
            f".{fingerprint}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        )
        if "checksum" not in payload:
            payload = {**payload, "checksum": payload_checksum(payload)}
        with open(tmp_path, "w", encoding="utf-8") as file:
            json.dump(payload, file, separators=(",", ":"))
        os.replace(tmp_path, path)
        self.writes += 1
        return path

    def entries(self) -> Iterator[dict]:
        """Every valid payload in the store (torn files skipped)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as file:
                    payload = json.load(file)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and isinstance(
                payload.get("runs"), list
            ):
                yield payload

    def stats(self) -> Dict[str, object]:
        """Entry/byte totals plus this instance's hit/miss/write counts."""
        entry_count = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entry_count += 1
        return {
            "root": str(self.root),
            "entries": entry_count,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    # -- fsck --------------------------------------------------------------

    def quarantine_dir(self) -> Path:
        """Where ``fsck --repair`` moves defective entries.

        Quarantined files also gain a ``.quarantined`` suffix so the
        ``*/*.json`` globs behind ``entries()``/``stats()``/``fsck()``
        (which *do* descend into dot-directories) can never serve or
        re-flag them."""
        return self.root / ".quarantine"

    def _classify(self, path: Path) -> str:
        """The fsck category for one ``<shard>/<name>.json`` file."""
        try:
            with open(path, "r", encoding="utf-8") as file:
                payload = json.load(file)
        except (OSError, ValueError):
            return "torn"
        if not isinstance(payload, dict) or not isinstance(
            payload.get("runs"), list
        ):
            return "malformed"
        fingerprint = payload.get("fingerprint")
        if fingerprint != path.stem:
            return "foreign"
        if payload.get("schema") != RESULT_SCHEMA_VERSION:
            return "stale_schema"
        if payload.get("checksum") != payload_checksum(payload):
            return "checksum_mismatch"
        if path.parent.name != fingerprint[:2]:
            return "misplaced"
        return "ok"

    def fsck(self, repair: bool = False, gc: bool = False) -> dict:
        """Verify every entry's digest/schema; optionally repair or gc.

        Walks the whole store and classifies each ``*.json`` entry
        (:data:`FSCK_DEFECTS`), plus leftover ``.tmp`` debris from
        writers that died before their atomic rename. Actions:

        * ``repair=True`` — move defective entries into
          :meth:`quarantine_dir` (out of serving, kept for forensics)
          and delete tmp debris;
        * ``gc=True`` — delete defective entries, tmp debris *and* any
          previously quarantined files outright.

        Neither touches valid entries. Run against a quiesced store:
        a live writer's in-progress temp file looks like debris.
        Returns a deterministic report (sorted relative paths); the
        store is ``clean`` when no defect remains in serving position."""
        report: dict = {
            "root": str(self.root),
            "checked": 0,
            "ok": 0,
            "defects": {category: [] for category in FSCK_DEFECTS},
            "tmp_debris": [],
            "quarantined": [],
            "deleted": [],
            "clean": True,
        }
        if not self.root.is_dir():
            return report

        def act(path: Path, removable_only: bool = False) -> None:
            """Apply the requested action to one defective file."""
            relative = str(path.relative_to(self.root))
            if gc:
                try:
                    path.unlink()
                    report["deleted"].append(relative)
                except OSError:
                    pass
            elif repair:
                if removable_only:
                    try:
                        path.unlink()
                        report["deleted"].append(relative)
                    except OSError:
                        pass
                    return
                self.quarantine_dir().mkdir(parents=True, exist_ok=True)
                name = f"{path.name}.quarantined"
                target = self.quarantine_dir() / name
                suffix = 0
                while target.exists():
                    suffix += 1
                    target = self.quarantine_dir() / f"{name}.{suffix}"
                try:
                    os.replace(path, target)
                    report["quarantined"].append(relative)
                except OSError:
                    pass

        for path in sorted(self.root.glob("*/*.json")):
            report["checked"] += 1
            category = self._classify(path)
            if category == "ok":
                report["ok"] += 1
                continue
            report["defects"][category].append(
                str(path.relative_to(self.root))
            )
            act(path)
        for path in sorted(self.root.glob("*/.*.tmp")):
            report["tmp_debris"].append(str(path.relative_to(self.root)))
            act(path, removable_only=True)
        if gc and self.quarantine_dir().is_dir():
            for path in sorted(self.quarantine_dir().iterdir()):
                try:
                    path.unlink()
                    report["deleted"].append(
                        str(path.relative_to(self.root))
                    )
                except OSError:
                    pass
        defect_count = sum(len(v) for v in report["defects"].values())
        report["defect_count"] = defect_count
        report["clean"] = defect_count == 0 or repair or gc
        for paths in report["defects"].values():
            paths.sort()
        report["deleted"].sort()
        report["quarantined"].sort()
        return report
