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

The server encodes each event once and tags it with its request's
``id`` on the way out (:func:`tag_message`), so a stored answer can be
encoded once and sent to every client that asks for it.
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


#: Most samples (``trace_count * invocations``) one job may run.
#: ``JobSpec``'s defaults ask for 27.
MAX_JOB_SAMPLES = 1000

#: Most trace milliseconds (``trace_count * trace_duration_ms``) one
#: job may synthesize: 8 MB of samples. ``JobSpec``'s defaults ask for
#: 27 000.
MAX_JOB_TRACE_MS = 10**6


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        """Raise ``ValueError`` for anything the harness would reject,
        and for a job above :data:`MAX_JOB_SAMPLES` samples or
        :data:`MAX_JOB_TRACE_MS` trace milliseconds.

        Counts, durations, seeds and a non-precise ``bits`` must be
        integers: JSON's ``2.5``, ``"2"`` and ``true`` are not (``True
        == 1`` in Python, so a bool would otherwise pass as 1)."""
        from ..runtime.table import runtime_row
        from ..workloads import ALL_BENCHMARKS

        if self.workload not in ALL_BENCHMARKS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {ALL_BENCHMARKS}"
            )
        if self.mode not in ("precise", "swp", "swv"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != "precise" and (
            not _is_int(self.bits) or self.bits not in (1, 2, 3, 4, 8)
        ):
            raise ValueError(f"invalid bits {self.bits!r} for mode {self.mode!r}")
        runtime_row(self.runtime)
        if self.scale not in ("tiny", "default", "paper"):
            raise ValueError(f"unknown scale {self.scale!r}")
        for name in ("trace_count", "invocations", "trace_duration_ms", "trace_seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.trace_count < 1 or self.invocations < 1 or self.trace_duration_ms < 1:
            raise ValueError(
                "trace_count, invocations and trace_duration_ms must be >= 1"
            )
        # The accept is journaled before compute, so a job too large to
        # run would be replayed by every boot after the one it killed.
        samples = self.trace_count * self.invocations
        if samples > MAX_JOB_SAMPLES:
            raise ValueError(
                f"trace_count * invocations is {samples} samples, "
                f"above the limit of {MAX_JOB_SAMPLES}"
            )
        trace_ms = self.trace_count * self.trace_duration_ms
        if trace_ms > MAX_JOB_TRACE_MS:
            raise ValueError(
                f"trace_count * trace_duration_ms is {trace_ms} ms, "
                f"above the limit of {MAX_JOB_TRACE_MS}"
            )

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


def tag_message(line: bytes, request_id) -> bytes:
    """``line``, a message encoded by :func:`encode_message`, tagged
    with a request id: byte for byte ``encode_message({**message, "id":
    request_id})``, and ``line`` itself when ``request_id`` is None.

    The message must not hold an ``id`` key already. The id is appended
    as the last key, encoded with the same separators, so an answer
    encoded once can be sent under every request's id."""
    if request_id is None:
        return line
    tail = (
        b'"id":'
        + json.dumps(request_id, separators=(",", ":")).encode("utf-8")
        + b"}\n"
    )
    if line == b"{}\n":
        return b"{" + tail
    return line[:-2] + b"," + tail


def decode_message(line: bytes) -> dict:
    """Parse one received line; raises ``ValueError`` on garbage."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message
