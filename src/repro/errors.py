"""Typed exception hierarchy for the simulator and experiment harness.

Every failure the runtime, simulator or harness can diagnose raises a
subclass of :class:`ReproError` instead of a bare ``RuntimeError``, so
callers (the chaos campaign in :mod:`repro.fault`, the self-healing
experiment grid in :mod:`repro.experiments.common`, user scripts) can
distinguish *the machine misbehaved* (a consistency violation — always
a bug) from *the environment was hopeless* (a progress stall on a dead
trace — an expected outcome the harness degrades gracefully on).

:class:`ReproError` deliberately subclasses ``RuntimeError``: every
pre-existing ``except RuntimeError`` caller keeps working, and the
messages are preserved verbatim with cycle/PC context appended.

The hierarchy::

    ReproError (RuntimeError)
    ├── ConsistencyViolation      — a crash-consistency invariant broke
    │   ├── TornCheckpointError   — restore saw a non-atomic commit
    │   └── IllegalRestoreError   — restore landed on an illegal PC/state
    ├── ProgressStall             — livelock: no forward progress survives
    ├── IncompleteRun             — a sample missed its simulated deadline
    ├── SampleTimeout             — a sample missed its wall-clock deadline
    ├── SkimStateError            — skim register protocol misuse
    ├── SupplyStateError          — power-supply FSM protocol misuse
    └── ServiceError              — the experiment service failed a request
        ├── ServiceBusy           — load shed; retry after ``retry_after``
        ├── ServiceTimeout        — a read/compute deadline expired
        ├── ServiceDisconnected   — the connection died mid-request
        └── SocketInUseError      — the UDS path belongs to a live server

:class:`~repro.power.supply.SupplyExhausted` (a dead harvest trace)
subclasses :class:`ProgressStall`; it lives in :mod:`repro.power.supply`
for backward compatibility.
"""

from __future__ import annotations

from typing import Optional


class ReproError(RuntimeError):
    """Base class for all typed errors raised by this package.

    ``context`` keyword arguments (cycle, pc, tick, …) are stored on the
    instance and appended to the message so logs stay self-describing.
    """

    def __init__(self, message: str, **context):
        self.context = {k: v for k, v in context.items() if v is not None}
        if self.context:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            message = f"{message} [{detail}]"
        super().__init__(message)


class ConsistencyViolation(ReproError):
    """A crash-consistency invariant did not hold across a reboot.

    Raised by the chaos oracle (:mod:`repro.fault.oracle`) and carries
    the machine-readable ``invariant`` name the campaign reports on.
    """

    #: Default invariant name; subclasses and call sites override.
    invariant = "consistency"

    def __init__(self, message: str, invariant: Optional[str] = None, **context):
        if invariant is not None:
            self.invariant = invariant
        super().__init__(message, **context)


class TornCheckpointError(ConsistencyViolation):
    """A restore observed a checkpoint that was not committed atomically."""

    invariant = "atomic-commit"


class IllegalRestoreError(ConsistencyViolation):
    """A restore resumed from an illegal program counter or state."""

    invariant = "legal-restore-pc"


class ProgressStall(ReproError):
    """Forward progress stopped: the power environment cannot sustain
    the runtime's overheads plus one checkpoint interval (livelock), or
    execution sat idle for many consecutive ON ticks."""


class IncompleteRun(ReproError):
    """A sample failed to finish within its simulated wall-clock budget."""


class SampleTimeout(ReproError):
    """A sample failed to finish within its real wall-clock budget
    (the ``REPRO_SAMPLE_TIMEOUT`` harness knob)."""


class SkimStateError(ReproError):
    """The skim register protocol was violated (e.g. consuming while
    disarmed)."""


class SupplyStateError(ReproError):
    """The power-supply FSM was driven out of protocol (e.g. beginning
    a tick while the supply is off)."""


class ServiceError(ReproError):
    """The experiment service answered a request with an error event,
    or broke protocol. Historically lived in ``repro.service.client``
    (as a bare ``RuntimeError`` subclass); the old import path remains
    as a backwards-compatible alias."""


class ServiceBusy(ServiceError):
    """The server shed this submission under load (bounded in-flight
    queue). Carries the server's ``retry_after`` hint in seconds; the
    resilient client backs off and resubmits automatically."""

    def __init__(self, message: str, retry_after: Optional[float] = None, **context):
        self.retry_after = retry_after
        super().__init__(message, retry_after=retry_after, **context)


class ServiceTimeout(ServiceError):
    """A service deadline expired: the client's socket read deadline
    (``REPRO_CLIENT_TIMEOUT``) or the server's per-job wall-clock
    watchdog (``serve --job-timeout``); ``side=client``/``side=server``
    context distinguishes the two."""


class ServiceDisconnected(ServiceError):
    """The connection died mid-request (server crash, reset, or EOF).

    Retryable by design: submissions are idempotent store-first
    operations, so the client reconnects and resubmits."""


class SocketInUseError(ServiceError):
    """``serve`` refused to bind: the unix-socket path answers to a
    live server. A dead leftover socket is unlinked instead."""
