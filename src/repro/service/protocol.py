"""The experiment service's wire protocol: newline-delimited JSON.

One connection carries any number of requests; every request is a
single JSON object on its own line with an ``op`` field and a
client-chosen ``id``, and every response line echoes that ``id`` so a
client can interleave requests on one socket. The full message
reference lives in docs/SERVICE.md; the shapes in brief::

    -> {"op": "submit", "id": 1, "job": {...}, "full": false}
    <- {"event": "ack", "id": 1, "fingerprint": "...", "cached": false,
        "deduped": false}
    <- {"event": "progressive", "id": 1, "stage": "level-k", ...}
    <- {"event": "result", "id": 1, "source": "computed", ...}

    -> {"op": "ping", "id": 2}         <- {"event": "pong", "id": 2}
    -> {"op": "stats", "id": 3}        <- {"event": "stats", "id": 3, ...}
    -> {"op": "shutdown", "id": 4}     <- {"event": "bye", "id": 4}

The *progressive* event is the paper's anytime contract lifted to the
API: a submission streams a level-k approximate answer (the grid's
first finished sample, skim semantics and all) before the final
full-grid result lands. A cached submission skips straight to its
``result`` event with ``source: "store"``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

#: Bumped when a message shape changes incompatibly. Servers echo it in
#: ``ack``/``stats`` events so mismatched clients can fail loudly.
PROTOCOL_VERSION = 1

#: Default rendezvous when neither ``--socket`` nor ``--port`` is given
#: (relative to the platform temp directory).
DEFAULT_SOCKET_NAME = "repro-service.sock"


def default_socket_path() -> str:
    """The default unix-domain socket path (``$TMPDIR/repro-service.sock``)."""
    import os
    import tempfile

    return os.path.join(tempfile.gettempdir(), DEFAULT_SOCKET_NAME)


@dataclass(frozen=True)
class JobSpec:
    """One experiment-configuration job, as submitted by a client.

    Mirrors the knobs of
    :class:`repro.experiments.common.ExperimentSetup` plus the
    configuration identity; everything is a primitive so the spec
    crosses the JSON wire and the fingerprint function untouched.
    """

    workload: str
    mode: str
    bits: Optional[int] = None
    runtime: str = "clank"
    scale: str = "default"
    trace_count: int = 9
    invocations: int = 3
    trace_duration_ms: int = 3000
    trace_seed: int = 100

    def validate(self) -> None:
        """Raise ``ValueError`` for anything the harness would reject."""
        from ..runtime.table import runtime_row
        from ..workloads import ALL_BENCHMARKS

        if self.workload not in ALL_BENCHMARKS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {ALL_BENCHMARKS}"
            )
        if self.mode not in ("precise", "swp", "swv"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != "precise" and self.bits not in (1, 2, 3, 4, 8):
            raise ValueError(f"invalid bits {self.bits!r} for mode {self.mode!r}")
        runtime_row(self.runtime)
        if self.scale not in ("tiny", "default", "paper"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.trace_count < 1 or self.invocations < 1:
            raise ValueError("trace_count and invocations must be >= 1")

    def setup(self):
        """The :class:`~repro.experiments.common.ExperimentSetup` this
        spec describes (grid shape only; identity fields live on the
        spec itself)."""
        from ..experiments.common import ExperimentSetup

        return ExperimentSetup(
            scale=self.scale,
            trace_count=self.trace_count,
            invocations=self.invocations,
            trace_duration_ms=self.trace_duration_ms,
            trace_seed=self.trace_seed,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from a submitted ``job`` object, ignoring unknown
        keys (forward compatibility) and rejecting non-dict input."""
        if not isinstance(data, dict):
            raise ValueError("job must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in data.items() if k in known}
        if "workload" not in kwargs or "mode" not in kwargs:
            raise ValueError("job needs at least 'workload' and 'mode'")
        return cls(**kwargs)


def encode_message(message: dict) -> bytes:
    """One protocol message as a single JSON line (utf-8, ``\\n``-terminated)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one received line; raises ``ValueError`` on garbage."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message
