"""Synchronous client for the experiment service.

The blocking counterpart of :mod:`repro.service.server`: one socket,
newline-delimited JSON, request ids allocated per call. Used by
``python -m repro submit``, the CI smoke and the tests; anything that
speaks the protocol in docs/SERVICE.md interoperates (``nc`` included).

Resilience contract (docs/SERVICE.md "Recovery and retry"):

* every socket read honors a **read deadline** (``REPRO_CLIENT_TIMEOUT``
  or the ``read_timeout`` argument) — a hung server raises a typed
  :class:`~repro.errors.ServiceTimeout` instead of blocking forever;
* :meth:`ServiceClient.submit` **reconnects and resubmits** with
  exponential backoff + jitter when the connection dies mid-stream or
  the server load-sheds with a ``busy`` event. Resubmission is safe by
  construction: submits are idempotent content-addressed store-first
  operations, so a job computed before the crash resolves to a store
  hit, byte-identical.

Errors are the typed :mod:`repro.errors` service family;
``ServiceError`` is re-exported here for backwards compatibility with
its original home in this module.
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import time
from typing import Callable, Optional

from ..errors import (
    ServiceBusy,
    ServiceDisconnected,
    ServiceError,
    ServiceTimeout,
)
from .protocol import decode_message, encode_message

__all__ = [
    "ServiceBusy",
    "ServiceClient",
    "ServiceDisconnected",
    "ServiceError",
    "ServiceTimeout",
]

#: Environment variable setting the default socket read deadline
#: (seconds, float). Unset, invalid, non-positive or above
#: :data:`MAX_READ_TIMEOUT_S` (``inf`` included) = no deadline.
CLIENT_TIMEOUT_ENV = "REPRO_CLIENT_TIMEOUT"

#: Longest read deadline in seconds. ``socket.settimeout`` raises
#: ``OverflowError`` on longer ones (1e10 s, ``inf``), which would
#: crash the client instead of leaving it without a deadline.
MAX_READ_TIMEOUT_S = 1e9


def _read_deadline(value: object) -> Optional[float]:
    """``value`` (a number or the variable's text) as a read deadline
    in seconds, or ``None`` (no deadline) unless it is a positive number
    up to :data:`MAX_READ_TIMEOUT_S`."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 < seconds <= MAX_READ_TIMEOUT_S else None


class ServiceClient:
    """One blocking connection to a running experiment service."""

    #: Default resubmission attempts after a disconnect/busy rejection.
    DEFAULT_RETRIES = 5
    #: Base backoff delay in seconds (doubles per attempt, jittered).
    DEFAULT_BACKOFF = 0.25
    #: Ceiling for one backoff delay in seconds.
    BACKOFF_CAP = 4.0

    def __init__(
        self, sock: socket.socket, read_timeout: Optional[float] = None
    ) -> None:
        """Wrap an already-connected socket (use :meth:`connect`).

        ``read_timeout`` defaults to ``REPRO_CLIENT_TIMEOUT``. A raw
        socket has no redial coordinates, so automatic reconnect is
        only available on clients built via :meth:`connect`."""
        self.read_timeout = _read_deadline(
            os.environ.get(CLIENT_TIMEOUT_ENV)
            if read_timeout is None else read_timeout
        )
        self.retries = self.DEFAULT_RETRIES
        self.backoff = self.DEFAULT_BACKOFF
        self._rng = random.Random()
        self._connect_args = None
        self._attach(sock)

    def _attach(self, sock: socket.socket) -> None:
        """Adopt a connected socket (initial connect and reconnects)."""
        if self.read_timeout is not None:
            sock.settimeout(self.read_timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        self._ids = itertools.count(1)

    @classmethod
    def connect(
        cls,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 30.0,
        read_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ) -> "ServiceClient":
        """Connect over unix socket or TCP, retrying until ``timeout``.

        The retry loop absorbs the startup race of a just-spawned
        server (the CI smoke launches ``serve`` and connects
        immediately); a server that never appears raises the last
        ``OSError``. ``retries``/``backoff`` override the resubmission
        policy :meth:`submit` uses after mid-stream disconnects."""
        sock = cls._open_socket(socket_path, host, port, timeout)
        client = cls(sock, read_timeout=read_timeout)
        client._connect_args = (socket_path, host, port, timeout)
        if retries is not None:
            client.retries = retries
        if backoff is not None:
            client.backoff = backoff
        return client

    @staticmethod
    def _open_socket(
        socket_path: Optional[str],
        host: str,
        port: Optional[int],
        timeout: float,
    ) -> socket.socket:
        """Dial the service, retrying until ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        last_error: Optional[OSError] = None
        while time.monotonic() < deadline:
            try:
                if socket_path is not None:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(socket_path)
                else:
                    if port is None:
                        raise ValueError("need socket_path or port")
                    sock = socket.create_connection((host, port))
                return sock
            except OSError as exc:
                last_error = exc
                time.sleep(0.05)
        raise last_error or OSError("connect timed out")

    def _reconnect(self) -> None:
        """Redial the server after a mid-stream disconnect."""
        if self._connect_args is None:
            raise ServiceDisconnected(
                "cannot reconnect: client wraps a raw socket "
                "(use ServiceClient.connect for automatic redial)"
            )
        self.close()
        self._attach(self._open_socket(*self._connect_args))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the connected client itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the socket."""
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _send(self, message: dict) -> int:
        """Send one request, returning its allocated id."""
        request_id = next(self._ids)
        self._sock.sendall(encode_message({**message, "id": request_id}))
        return request_id

    @staticmethod
    def _error_from_event(event: dict) -> ServiceError:
        """The typed exception one ``error`` event maps to."""
        message = event.get("error", "unknown error")
        code = event.get("code")
        if code == "busy":
            return ServiceBusy(message, retry_after=event.get("retry_after"))
        if code == "job-timeout":
            return ServiceTimeout(message, side="server")
        return ServiceError(message)

    def _events(self, request_id: int):
        """Yield this request's events (other ids are skipped — the
        sync client issues one request at a time, but a server is free
        to interleave streams).

        Every read honors the read deadline: a silent server raises
        :class:`~repro.errors.ServiceTimeout`; EOF or a reset raises
        :class:`~repro.errors.ServiceDisconnected` (retryable)."""
        while True:
            try:
                line = self._file.readline()
            except socket.timeout as exc:
                raise ServiceTimeout(
                    "no event within the read deadline",
                    side="client", timeout_s=self.read_timeout,
                ) from exc
            except OSError as exc:
                raise ServiceDisconnected(
                    f"connection lost mid-request: {exc}"
                ) from exc
            if not line:
                raise ServiceDisconnected(
                    "server closed the connection mid-request"
                )
            event = decode_message(line)
            if event.get("id") == request_id:
                yield event

    def _request(self, message: dict, want: str) -> dict:
        """One request -> one response of kind ``want`` (or error)."""
        request_id = self._send(message)
        for event in self._events(request_id):
            if event.get("event") == "error":
                raise self._error_from_event(event)
            if event.get("event") == want:
                return event
            # Anything else (stray progressive) is skipped.

    # -- public ops --------------------------------------------------------

    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the ``pong`` event."""
        return self._request({"op": "ping"}, "pong")

    def stats(self) -> dict:
        """The server's scheduler + store statistics."""
        return self._request({"op": "stats"}, "stats")["stats"]

    def shutdown(self) -> dict:
        """Ask the server to drain in-flight work and exit."""
        return self._request({"op": "shutdown"}, "bye")

    def _submit_once(
        self,
        job: dict,
        full: bool,
        on_event: Optional[Callable[[dict], None]],
    ) -> dict:
        """One submit attempt on the current connection."""
        request_id = self._send({"op": "submit", "job": job, "full": full})
        for event in self._events(request_id):
            if on_event is not None:
                on_event(event)
            if event.get("event") == "error":
                raise self._error_from_event(event)
            if event.get("event") == "result":
                return event

    def submit(
        self,
        job: dict,
        full: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        on_retry: Optional[Callable[[int, Exception, float], None]] = None,
    ) -> dict:
        """Submit one job and block until its terminal event.

        Every streamed event (ack, progressives, the result) is passed
        to ``on_event`` as it arrives — this is the anytime hook: the
        ``level-k`` progressive carries a usable approximate answer
        long before the return value does. Returns the ``result``
        event; raises a typed :class:`~repro.errors.ServiceError` on an
        ``error`` event.

        A mid-stream disconnect or a ``busy`` load-shed is retried up
        to ``retries`` times with exponential backoff + jitter
        (reconnecting first when the connection died) — safe because
        submissions are idempotent store-first operations; after a
        retry ``on_event`` sees the new attempt's stream from its ack
        on. ``on_retry(attempt, error, delay)`` observes each backoff
        decision. Validation errors and timeouts are never retried."""
        retries = self.retries if retries is None else retries
        backoff = self.backoff if backoff is None else backoff
        attempt = 0
        need_reconnect = False
        while True:
            try:
                if need_reconnect:
                    self._reconnect()
                    need_reconnect = False
                return self._submit_once(job, full, on_event)
            except (ServiceBusy, ServiceDisconnected, OSError) as exc:
                if attempt >= retries:
                    if isinstance(exc, OSError) and not isinstance(exc, ServiceError):
                        raise ServiceDisconnected(
                            f"connection lost: {exc}", attempts=attempt + 1
                        ) from exc
                    raise
                delay = min(self.BACKOFF_CAP, backoff * (2 ** attempt))
                delay *= 0.5 + self._rng.random() / 2  # jitter: [50%, 100%)
                if isinstance(exc, ServiceBusy) and exc.retry_after:
                    delay = max(delay, float(exc.retry_after))
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                time.sleep(delay)
                need_reconnect = not isinstance(exc, ServiceBusy)
                attempt += 1
