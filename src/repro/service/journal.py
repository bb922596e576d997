"""The durable job journal (``serve --journal``): crash-tolerant accepts.

The paper treats power failure as a normal event to survive, not an
error — this module applies the same philosophy to the service host.
Like Alpaca's commit-at-task-boundary idempotence, every accepted
``submit`` is appended to an append-only journal **before** compute
starts and marked ``done`` once the store entry lands; a server killed
at any point in between leaves a pending accept record that
``serve --recover`` (default on) replays into the scheduler on the next
boot. Replay is idempotent by construction: jobs are content-addressed
store-first operations, so a job whose result already landed resolves
to a store hit and is simply marked done.

Record format — one JSON object per line, crash-tolerant::

    {"rec": "accept", "seq": 1, "fingerprint": "9c0f…", "job": {…}, "crc": "deadbeef"}
    {"rec": "done",   "seq": 2, "fingerprint": "9c0f…", "crc": "…"}
    {"rec": "fail",   "seq": 3, "fingerprint": "9c0f…", "reason": "…", "crc": "…"}

* ``crc`` is the first 8 hex chars of the sha256 of the record's
  canonical JSON *without* the crc field. A torn tail line (no newline,
  truncated JSON) or a corrupted line fails the parse or the crc check
  and is skipped — exactly the store's torn-entry discipline.
* Appends are single ``os.write`` calls on an ``O_APPEND`` descriptor,
  so concurrent writers never interleave bytes; ``fsync=True`` (armed
  by ``REPRO_JOURNAL_FSYNC=1``) additionally flushes each record to
  the device before returning.
* A fingerprint's state is decided by its **last** record: ``accept``
  with no later ``done``/``fail`` means pending.

``compact()`` rewrites the journal with only the pending accepts
(unique temp file + ``os.replace``, the same two-phase commit the
runtimes under test use), so recovery never replays completed history
and the file stays bounded.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, List, Optional, Tuple

#: Environment variable arming per-record fsync (``1`` = on).
JOURNAL_FSYNC_ENV = "REPRO_JOURNAL_FSYNC"


def _sealed_line(record: dict) -> bytes:
    """One journal record as a crc-sealed JSON line (utf-8 + newline)."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = hashlib.sha256(body.encode("utf-8")).hexdigest()[:8]
    sealed = json.dumps(
        {**record, "crc": crc}, sort_keys=True, separators=(",", ":")
    )
    return sealed.encode("utf-8") + b"\n"


def _parse_line(line: bytes) -> Optional[dict]:
    """Parse one journal line; ``None`` for torn/corrupt/foreign lines."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest()[:8] != crc:
        return None
    if record.get("rec") not in ("accept", "done", "fail"):
        return None
    if not isinstance(record.get("fingerprint"), str):
        return None
    return record


def read_records(path: str) -> List[dict]:
    """Every intact record in a journal file, in append order.

    Torn tail lines and corrupted middles are silently skipped — a
    journal is evidence, never something to error on."""
    records: List[dict] = []
    try:
        with open(path, "rb") as file:
            for line in file:
                record = _parse_line(line.rstrip(b"\n"))
                if record is not None:
                    records.append(record)
    except OSError:
        return []
    return records


def pending_jobs(path: str) -> List[Tuple[str, dict]]:
    """``(fingerprint, job)`` for every accept with no later done/fail.

    The replay worklist ``serve --recover`` consumes. Order is the
    original accept order; duplicate accepts of one fingerprint
    collapse to a single entry (idempotent replay)."""
    state: Dict[str, Optional[dict]] = {}
    order: List[str] = []
    for record in read_records(path):
        fingerprint = record["fingerprint"]
        if record["rec"] == "accept":
            if fingerprint not in state:
                order.append(fingerprint)
            state[fingerprint] = record.get("job") or {}
        else:
            state[fingerprint] = None
    return [(fp, state[fp]) for fp in order if state[fp] is not None]


class JobJournal:
    """One append-only journal file, shared by scheduler and recovery.

    Thread-safe: the event loop is the only writer in practice, but a
    lock keeps appends atomic under any future threading."""

    def __init__(self, path: str, fsync: bool = False) -> None:
        """Open (and create) the journal at ``path``."""
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = max(
            (int(r.get("seq", 0)) for r in read_records(path)), default=0
        )
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        self.accepted = 0
        self.completed = 0
        self.failed = 0

    def close(self) -> None:
        """Close the journal descriptor (idempotent)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def _append(self, record: dict) -> int:
        """Seal and append one record; returns its sequence number."""
        with self._lock:
            if self._fd is None:
                raise OSError("journal is closed")
            self._seq += 1
            record = {**record, "seq": self._seq}
            os.write(self._fd, _sealed_line(record))
            if self.fsync:
                os.fsync(self._fd)
            return self._seq

    def accept(self, fingerprint: str, job: dict) -> int:
        """Journal one accepted submission *before* its compute starts."""
        self.accepted += 1
        return self._append(
            {"rec": "accept", "fingerprint": fingerprint, "job": job}
        )

    def done(self, fingerprint: str) -> int:
        """Mark a fingerprint complete (its store entry has landed)."""
        self.completed += 1
        return self._append({"rec": "done", "fingerprint": fingerprint})

    def fail(self, fingerprint: str, reason: str) -> int:
        """Retire a fingerprint without a result (poisoned/hung job).

        A ``fail`` record stops recovery from replaying a job that can
        never finish (e.g. one that tripped the wall-clock watchdog);
        the client that wanted it resubmits explicitly."""
        self.failed += 1
        return self._append(
            {"rec": "fail", "fingerprint": fingerprint, "reason": reason}
        )

    def pending(self) -> List[Tuple[str, dict]]:
        """Current replay worklist (see :func:`pending_jobs`)."""
        return pending_jobs(self.path)

    def compact(self) -> int:
        """Atomically rewrite the journal to just its pending accepts.

        Returns the number of surviving records. Safe against a crash
        at any point: the rewrite goes to a unique temp file and
        ``os.replace``s into place, and the append descriptor is
        reopened on the new file under the lock."""
        pending = self.pending()
        with self._lock:
            tmp_path = f"{self.path}.{os.getpid()}.compact.tmp"
            with open(tmp_path, "wb") as file:
                for seq, (fingerprint, job) in enumerate(pending, start=1):
                    file.write(_sealed_line({
                        "rec": "accept", "seq": seq,
                        "fingerprint": fingerprint, "job": job,
                    }))
                file.flush()
                if self.fsync:
                    os.fsync(file.fileno())
            os.replace(tmp_path, self.path)
            if self._fd is not None:
                os.close(self._fd)
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
            self._seq = len(pending)
        return len(pending)

    def stats(self) -> dict:
        """Counters + current pending depth for the stats endpoint."""
        return {
            "path": self.path,
            "pending": len(self.pending()),
            "accepted": self.accepted,
            "completed": self.completed,
            "failed": self.failed,
        }
