"""Boot ``repro serve`` and drive it over one asyncio NDJSON connection.

Load comes from this single process. Each :class:`Server` is a fresh
``python -m repro serve`` (or ``traced_serve.py``) subprocess with its own
store, journal and unix socket under the run's work directory; it keeps
the service's defaults (thread pool sized by the host, no fsync).
:class:`Connection` multiplexes requests by id, stamping each event on
arrival, and the two load generators sit on top: :func:`closed_loop` (one
request in flight) and :func:`open_loop` (sends on a schedule, latency
timed from when each request was due). Both sample the host's speed
(:mod:`speed`) while nothing waits on the server.
"""

from __future__ import annotations

import asyncio
import itertools
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service.protocol import decode_message, encode_message
from speed import Speedometer

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: The slowest cold job takes about 2 s on a 2-vCPU host.
REQUEST_TIMEOUT_S = 30.0
#: The open loop samples the host's speed only when nothing is in flight
#: and the next request is due at least this far ahead, so the probe
#: never delays a send; it looks for such gaps this often.
PROBE_GAP_S = 0.010


class Request:
    """One request's timeline: start (sent, or due for open loops), sent,
    first ``progressive`` event (None when it had none), end, and its
    terminal event; ``hit`` is True when the store answered it."""

    __slots__ = ("start", "sent", "lag", "first", "end", "outcome", "event", "hit", "done")

    def __init__(self, start: float, sent: float) -> None:
        self.start, self.sent = start, sent
        self.lag = sent - start
        self.first: Optional[float] = None
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.event: Optional[dict] = None
        self.hit = False
        self.done = asyncio.get_running_loop().create_future()

    def finish(self, outcome: str, event: Optional[dict], now: float) -> None:
        if self.done.done():
            return
        self.outcome, self.event, self.end = outcome, event, now
        self.hit = event is not None and event.get("source") == "store"
        self.done.set_result(None)


class Connection:
    """One NDJSON connection; responses are routed to requests by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader, self._writer = reader, writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, Request] = {}
        self._task = asyncio.ensure_future(self._read())

    @property
    def idle(self) -> bool:
        """True when no request is waiting for its answer."""
        return not self._pending

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = decode_message(line)
                now = time.perf_counter()
                request = self._pending.get(message.get("id"))
                if request is None:
                    continue
                event = message.get("event")
                if event == "ack":
                    continue
                if event == "progressive":
                    if request.first is None:
                        request.first = now
                    continue
                del self._pending[message["id"]]
                if event == "error":
                    request.finish(message.get("code") or "error", message, now)
                else:
                    request.finish("ok", message, now)
        finally:
            now = time.perf_counter()
            for request in self._pending.values():
                request.finish("disconnected", None, now)
            self._pending.clear()

    def send(self, message: dict, start: Optional[float] = None) -> Request:
        """Write one request; ``start`` defaults to the send time."""
        request_id = next(self._ids)
        now = time.perf_counter()
        request = Request(now if start is None else start, now)
        self._pending[request_id] = request
        self._writer.write(encode_message({**message, "id": request_id}))
        return request

    def submit(self, job: dict, full: bool = False, start: Optional[float] = None) -> Request:
        return self.send({"op": "submit", "job": job, "full": full}, start)

    async def call(self, op: str, timeout: float = STOP_TIMEOUT_S) -> Request:
        request = self.send({"op": op})
        await asyncio.wait_for(request.done, timeout)
        return request

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


class Server:
    """One ``repro serve`` subprocess and the connection driving it."""

    def __init__(self, root: Path, workdir: Path, env: Dict[str, str],
                 spans_path: Optional[Path] = None) -> None:
        """The server runs in ``root`` and keeps its socket, store and
        journal in ``workdir`` (created here; short relative paths keep the
        socket under the unix path limit). A ``spans_path`` boots the
        traced server, which writes its spans there at exit."""
        workdir.mkdir(parents=True)
        self.root, self.env, self.spans_path = root, env, spans_path
        self.socket = str(workdir / "s.sock")
        self.args = ["serve", "--socket", self.socket,
                     "--store", str(workdir / "store"),
                     "--journal", str(workdir / "journal.jsonl")]
        self.log_path = workdir / "serve.log"
        self.proc: Optional[subprocess.Popen] = None
        self.conn: Optional[Connection] = None

    async def start(self) -> Tuple[float, float]:
        """Spawn the server and wait for its first ``pong``; returns the
        moments of spawn and pong, the set-up interval."""
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", *self.args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                       str(self.spans_path), *self.args]
        began = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = began + BOOT_TIMEOUT_S
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket, limit=1 << 26
                )
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"server did not start: {self.log()}")
                await asyncio.sleep(0.001)
        self.conn = Connection(reader, writer)
        pong = await self.conn.call("ping", BOOT_TIMEOUT_S)
        if pong.outcome != "ok":
            raise RuntimeError(f"server did not answer ping: {self.log()}")
        return began, pong.end

    def log(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    async def stop(self) -> Tuple[dict, float]:
        """Read the scheduler counters and peak RSS, then shut down and
        wait for the process. Returns ``(counters, peak_rss_mb)``."""
        stats = await self.conn.call("stats")
        rss_mb = peak_rss_mb(self.proc.pid)
        await self.conn.call("shutdown")
        await self.conn.close()
        await asyncio.get_running_loop().run_in_executor(None, self.wait)
        return (stats.event or {}).get("stats", {}), rss_mb

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def kill(self) -> None:
        """Last-resort cleanup after an error."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as file:
        for line in file:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class RequestTimeout(Exception):
    """A closed-loop request went unanswered past its deadline."""


async def closed_loop(conn: Connection, jobs: Iterable[Tuple[dict, bool]],
                      speed: Speedometer, on_done=None,
                      timeout_s: float = REQUEST_TIMEOUT_S) -> List[Request]:
    """Send ``(job, full)`` pairs one at a time, each after the previous
    answer, and sample the host's speed in between. A request's lag is
    the client's own time between the two, probe excluded.

    A request unanswered after ``timeout_s`` is finished as a timeout,
    handed to ``on_done`` like any other, and ends the loop with
    :class:`RequestTimeout`: the server's pool is stuck, so later
    requests would only wait behind it."""
    done: List[Request] = []
    previous = time.perf_counter()
    for job, full in jobs:
        request = conn.submit(job, full)
        request.lag = request.start - previous
        await asyncio.wait({request.done}, timeout=timeout_s)
        if not request.done.done():
            request.finish("timeout", None, time.perf_counter())
        if on_done is not None:
            on_done(request)
        done.append(request)
        if request.outcome == "timeout":
            raise RequestTimeout(f"no answer within {timeout_s:g} s to {job}")
        speed.tick()
        previous = time.perf_counter()
    return done


async def open_loop(conn: Connection, schedule: Sequence[Tuple[float, str, dict]],
                    drain_s: float, speed: Speedometer,
                    on_done=None) -> Tuple[List[Request], int]:
    """Send each job when due (seconds from now) regardless of answers,
    sampling the host's speed in gaps where nothing is in flight.

    Returns the requests and how many were still unanswered ``drain_s``
    after the schedule ended (those are finished as timeouts)."""
    origin = time.perf_counter()
    requests: List[Request] = []
    for due, _kind, job in schedule:
        while True:
            delay = origin + due - time.perf_counter()
            if delay <= 0:
                break
            if delay > PROBE_GAP_S and conn.idle and speed.tick():
                continue
            await asyncio.sleep(min(delay, PROBE_GAP_S))
        request = conn.submit(job, False, start=origin + due)
        if on_done is not None:
            request.done.add_done_callback(lambda _f, r=request: on_done(r))
        requests.append(request)
    pending = [r.done for r in requests if not r.done.done()]
    if pending:
        await asyncio.wait(pending, timeout=drain_s)
    late = 0
    now = time.perf_counter()
    for request in requests:
        if not request.done.done():
            late += 1
            request.finish("timeout", None, now)
    return requests, late
