"""The asyncio experiment service (``python -m repro serve``).

One process serves any number of clients over a unix-domain socket or
localhost TCP. The scheduler's contract:

* **Store first.** Every submission is fingerprinted
  (:func:`repro.service.jobs.prepare`) and looked up in the
  content-addressed result store; a hit answers immediately with
  ``source: "store"`` and costs no compute.
* **Repeats from memory.** A fingerprint pins its entry's content, so
  the process memoizes, in the byte-budgeted ``_worker_cache``, each
  validated job's prepared context and each verified store entry's
  encoded ``result`` events (with and without ``runs``). A job the
  process has answered before is looked up on the event loop and sent
  from those bytes, tagged with its request id: no pool hop, no store
  read, no encoding, and byte for byte the answer a store read gives.
* **In-flight dedup.** Misses whose fingerprint is already being
  computed *subscribe* to the running job instead of starting another:
  N clients submitting overlapping grids pay for each distinct
  configuration exactly once, and every subscriber receives the same
  progressive stream (earlier events replayed on late subscription).
* **Anytime streaming.** A computing job publishes a ``level-k``
  progressive event as soon as the grid's first sample lands — the
  paper's skim-point answer, served before refinement — and the final
  ``result`` event once the full grid (on the replay engine) is
  merged and persisted to the store.
* **Durable accepts.** With a job journal armed (``serve --journal``),
  every accepted compute is appended to the journal *before* its first
  sample executes and marked done once the store entry lands. A server
  killed anywhere in between replays the pending accepts on the next
  boot (``--recover``, default on) — idempotently, because jobs are
  content-addressed store-first operations. This is the paper's
  commit-at-boundary discipline applied to the service host itself.

Hardening (all typed, none fatal to the process):

* a per-job wall-clock **watchdog** (``serve --job-timeout``) converts
  a hung compute into a ``job-timeout`` error event instead of a stuck
  connection;
* a bounded in-flight queue (``serve --max-pending``) **load-sheds**
  overflow submissions with a ``busy`` error event carrying a
  ``retry_after`` hint (the resilient client backs off and resubmits);
* SIGTERM (and the ``shutdown`` op) triggers a **graceful drain**:
  in-flight jobs finish and persist, everything else stays journaled
  for the next boot;
* a leftover unix-socket path from a crashed server is probed on bind
  and unlinked when dead — but binding over a *live* server raises
  :class:`~repro.errors.SocketInUseError` instead of hijacking it.

Compute runs in a thread pool so the event loop stays responsive. A
job's one configuration runs in its pool thread, as one commit-log
walk (:func:`repro.service.jobs.compute`); ``REPRO_JOBS`` does not
apply, because it shards a grid by configuration and a job has only
one.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Union

from ..errors import SocketInUseError
from ..experiments.common import _worker_cache
from ..store.cas import ResultStore, payload_checksum
from .journal import JobJournal
from .jobs import JobContext, compute, normalize, prepare, prepared
from .protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    decode_message,
    encode_message,
    tag_message,
)

#: Environment variable naming the host-level chaos kill point. When it
#: matches a boundary name the server SIGKILLs itself there — the
#: service chaos campaign (:mod:`repro.fault.service_chaos`) uses this
#: to die deterministically at the nastiest journal boundaries.
CHAOS_ENV = "REPRO_SERVICE_CHAOS"

#: The journal boundaries the chaos campaign can kill at.
CHAOS_POINTS = ("post-ack", "mid-compute", "post-store")


def chaos_point(name: str) -> None:
    """SIGKILL this process if ``REPRO_SERVICE_CHAOS`` names this point.

    A no-op in normal operation (one env lookup); under the service
    chaos campaign it models the host dying at an exact boundary —
    after the journal accept, mid-compute, or after the store write but
    before the journal done-marker."""
    if os.environ.get(CHAOS_ENV, "") == name:
        os.kill(os.getpid(), signal.SIGKILL)


class _InflightJob:
    """One computing fingerprint and its subscriber queues."""

    def __init__(self, fingerprint: str) -> None:
        """A job starts with no subscribers and an empty event history."""
        self.fingerprint = fingerprint
        self.history: List[dict] = []
        self.queues: List[asyncio.Queue] = []

    def subscribe(self) -> asyncio.Queue:
        """Attach a subscriber; past progressive events are replayed so
        a late-joining deduped client still sees the level-k answer."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.history:
            queue.put_nowait(event)
        self.queues.append(queue)
        return queue

    def publish(self, event: dict) -> None:
        """Broadcast a progressive event to every subscriber."""
        self.history.append(event)
        for queue in self.queues:
            queue.put_nowait(event)

    def finish(self, event: dict) -> None:
        """Broadcast the terminal (``result``/``error``) event."""
        for queue in self.queues:
            queue.put_nowait(event)


class _EncodedHit(tuple):
    """A verified store entry's ``result`` event, encoded once without
    and with ``runs`` (indexed by ``full``): what a repeated hit is
    sent from. Accounted in ``_worker_cache`` at its length in bytes."""

    __slots__ = ()

    def nbytes(self) -> int:
        return sum(map(len, self))


class ExperimentService:
    """The scheduler + server. One instance per ``repro serve`` process."""

    def __init__(
        self,
        store_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        journal_path: Optional[str] = None,
        journal_fsync: bool = False,
        job_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        recover: bool = True,
        drain_timeout: float = 30.0,
    ) -> None:
        """``store_dir=None`` serves without a cache (every submission
        computes); normal deployments point it at ``REPRO_STORE``.
        ``journal_path`` arms the durable job journal (``recover=True``
        replays its pending accepts on boot); ``job_timeout`` is the
        per-job wall-clock watchdog in seconds; ``max_pending`` bounds
        concurrent in-flight computations (overflow is load-shed with a
        typed ``busy`` event); ``drain_timeout`` bounds the graceful
        drain on shutdown."""
        self.store = ResultStore(store_dir) if store_dir else None
        #: Part of every hit's memo key, so two services in one process
        #: on different stores never share a hit.
        self._store_root = str(self.store.root.resolve()) if self.store else None
        self.pool = ThreadPoolExecutor(
            max_workers=max_workers or min(8, (os.cpu_count() or 2)),
            thread_name_prefix="repro-job",
        )
        self.journal = (
            JobJournal(journal_path, fsync=journal_fsync)
            if journal_path else None
        )
        self.job_timeout = job_timeout
        self.max_pending = max_pending
        self.recover = recover
        self.drain_timeout = drain_timeout
        #: ``retry_after`` hint (seconds) sent with load-shed rejections.
        self.busy_retry_after = 0.5
        self.inflight: Dict[str, _InflightJob] = {}
        self.counters = {
            "submissions": 0,
            "store_hits": 0,
            "inflight_dedups": 0,
            "computed": 0,
            "errors": 0,
            "busy_rejections": 0,
            "job_timeouts": 0,
            "recovered": 0,
        }
        self._lock = asyncio.Lock()
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._job_tasks: set = set()

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduler counters, the store's entry/hit statistics and the
        process's byte-budgeted cache (kernels, records, traces, job
        contexts and store hits)."""
        payload = {
            "protocol": PROTOCOL_VERSION,
            "inflight": len(self.inflight),
            "draining": self._draining,
            **self.counters,
        }
        payload["store"] = self.store.stats() if self.store else None
        payload["journal"] = self.journal.stats() if self.journal else None
        payload["cache"] = _worker_cache.stats()
        return payload

    # -- submission path ---------------------------------------------------

    @staticmethod
    def _result_event(payload: dict, source: str, full: bool) -> dict:
        """The terminal event for one submission; ``full`` includes the
        raw per-sample list alongside the summary."""
        event = {
            "event": "result",
            "source": source,
            "fingerprint": payload.get("fingerprint"),
            "config": payload.get("config"),
            "metrics": payload.get("metrics"),
            "ledger": payload.get("ledger"),
        }
        if full:
            event["runs"] = payload.get("runs")
        return event

    def _store_hit(self, fingerprint: str) -> Optional[_EncodedHit]:
        """The store's answer for ``fingerprint`` as encoded ``result``
        events, or None on a miss.

        A verified answer is kept in ``_worker_cache``, so the next hit
        on it reads and encodes nothing; only a successful load fills
        it. An entry that fails its checksum is served, as a load serves
        it, but read again on every hit, so ``store fsck --repair``
        heals what a live server answers."""
        key = ("hit", self._store_root, fingerprint)
        hit = _worker_cache.get(key)
        if hit is not None:
            return hit
        payload = self.store.load(fingerprint)
        if payload is None:
            return None
        hit = _EncodedHit(
            encode_message(self._result_event(payload, "store", full))
            for full in (False, True)
        )
        if payload.get("checksum") == payload_checksum(payload):
            hit = _worker_cache.add(key, hit)
        return hit

    def _track(self, task: "asyncio.Future") -> "asyncio.Future":
        """Register a job task so the graceful drain can await it."""
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return task

    async def submit(
        self,
        message: dict,
        emit: Callable[[Union[dict, bytes]], "asyncio.Future"],
    ) -> None:
        """Handle one ``submit`` request, streaming events via ``emit``.

        ``emit`` is an async callable that tags and writes one message,
        an event or one already encoded by
        :func:`~repro.service.protocol.encode_message`; this coroutine
        returns when the terminal event has been sent."""
        self.counters["submissions"] += 1
        full = bool(message.get("full"))
        try:
            # Validated before the memo lookup: specs that ``validate``
            # rejects can equal valid ones (``1.0 == 1``).
            spec = normalize(JobSpec.from_dict(message.get("job")))
            ctx = prepared(spec)
            if ctx is None:
                loop = asyncio.get_running_loop()
                ctx = await loop.run_in_executor(self.pool, prepare, spec)
        except (ValueError, TypeError) as exc:
            self.counters["errors"] += 1
            await emit({"event": "error", "error": str(exc)})
            return

        queue: Optional[asyncio.Queue] = None
        hit: Optional[_EncodedHit] = None
        deduped = False
        shed: Optional[str] = None
        async with self._lock:
            # Store lookup under the lock: entries are small JSON files,
            # and the lock guarantees a just-finished job (which writes
            # the store *before* leaving the inflight map) is either
            # still subscribable or already servable — never neither.
            if self.store is not None:
                hit = self._store_hit(ctx.fingerprint)
            if hit is not None:
                self.counters["store_hits"] += 1
            else:
                job = self.inflight.get(ctx.fingerprint)
                if job is not None:
                    deduped = True
                    self.counters["inflight_dedups"] += 1
                elif self._draining:
                    shed = "draining: finishing in-flight jobs"
                elif (
                    self.max_pending is not None
                    and len(self.inflight) >= self.max_pending
                ):
                    shed = (
                        f"busy: {len(self.inflight)} jobs in flight "
                        f"(limit {self.max_pending})"
                    )
                else:
                    # Durable boundary: the accept hits the journal
                    # before any compute is scheduled, so a crash from
                    # here on is recoverable.
                    if self.journal is not None:
                        self.journal.accept(ctx.fingerprint, spec.to_dict())
                    job = _InflightJob(ctx.fingerprint)
                    self.inflight[ctx.fingerprint] = job
                    self._track(asyncio.ensure_future(self._run_job(job, ctx)))
                if shed is None:
                    queue = job.subscribe()
        if shed is not None:
            self.counters["busy_rejections"] += 1
            await emit(
                {
                    "event": "error",
                    "code": "busy",
                    "error": f"server {shed}; resubmit later",
                    "retry_after": self.busy_retry_after,
                }
            )
            return

        await emit(
            {
                "event": "ack",
                "protocol": PROTOCOL_VERSION,
                "fingerprint": ctx.fingerprint,
                "cached": hit is not None,
                "deduped": deduped,
            }
        )
        chaos_point("post-ack")
        if hit is not None:
            await emit(hit[full])
            return
        while True:
            event = await queue.get()
            if event.get("event") == "result":
                await emit(self._result_event(event["payload"], event["source"], full))
                return
            await emit(event)
            if event.get("event") == "error":
                return

    async def _run_job(self, job: _InflightJob, ctx: JobContext) -> None:
        """Compute one distinct fingerprint and broadcast its events.

        The watchdog (``job_timeout``) bounds the whole compute+persist
        path: a hung job broadcasts a typed ``job-timeout`` error event
        and is retired in the journal (a ``fail`` record — recovery
        must not replay a job that can never finish)."""
        loop = asyncio.get_running_loop()

        def progress(stage: str, data: dict) -> None:
            # Called from the worker thread; hop onto the loop.
            chaos_point("mid-compute")
            loop.call_soon_threadsafe(
                job.publish, {"event": "progressive", "stage": stage, **data}
            )

        try:
            future = loop.run_in_executor(self.pool, compute, ctx, progress)
            if self.job_timeout is not None:
                payload = await asyncio.wait_for(future, timeout=self.job_timeout)
            else:
                payload = await future
            if self.store is not None:
                await loop.run_in_executor(
                    self.pool, self.store.put, ctx.fingerprint, payload
                )
            chaos_point("post-store")
        except asyncio.TimeoutError:
            self.counters["job_timeouts"] += 1
            self.counters["errors"] += 1
            if self.journal is not None:
                self.journal.fail(ctx.fingerprint, "job-timeout")
            async with self._lock:
                self.inflight.pop(ctx.fingerprint, None)
            job.finish(
                {
                    "event": "error",
                    "code": "job-timeout",
                    "error": (
                        f"job exceeded its {self.job_timeout}s "
                        "wall-clock budget"
                    ),
                }
            )
            return
        except Exception as exc:  # noqa: BLE001 — surfaced to the client
            self.counters["errors"] += 1
            if self.journal is not None:
                self.journal.fail(ctx.fingerprint, type(exc).__name__)
            async with self._lock:
                self.inflight.pop(ctx.fingerprint, None)
            job.finish(
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        self.counters["computed"] += 1
        # Done-marker only after the store entry landed: a crash between
        # the two replays the job, which resolves to a store hit.
        if self.journal is not None:
            self.journal.done(ctx.fingerprint)
        async with self._lock:
            # Store write happened above, so a submission that misses
            # the (now absent) inflight entry hits the store instead.
            self.inflight.pop(ctx.fingerprint, None)
        job.finish({"event": "result", "source": "computed", "payload": payload})

    # -- crash recovery ----------------------------------------------------

    async def _recover(self) -> None:
        """Replay the journal's pending accepts into the scheduler.

        Runs once on boot (``recover=True`` and a journal armed). Each
        pending job is re-prepared — deterministic, so the fingerprint
        matches — and resolved store-first: already-persisted results
        are just marked done, everything else computes exactly like a
        fresh submission (no subscribers; late clients dedup onto it or
        hit the store). Idempotent under duplicate accepts and safe to
        race with incoming submissions (the scheduler lock arbitrates)."""
        assert self.journal is not None
        pending = self.journal.pending()
        self.journal.compact()
        loop = asyncio.get_running_loop()
        for fingerprint, job_dict in pending:
            try:
                spec = JobSpec.from_dict(job_dict)
                ctx = await loop.run_in_executor(self.pool, prepare, spec)
            except Exception as exc:  # noqa: BLE001 — poisoned record
                self.journal.fail(fingerprint, f"unreplayable: {type(exc).__name__}")
                continue
            if ctx.fingerprint != fingerprint:
                # The code/schema version moved between boots: the old
                # accept can never complete under its old key. Retire it
                # and re-accept under the current fingerprint.
                self.journal.fail(fingerprint, "re-fingerprinted")
                self.journal.accept(ctx.fingerprint, spec.to_dict())
            async with self._lock:
                if (
                    self.store is not None
                    and self.store.load(ctx.fingerprint) is not None
                ):
                    self.journal.done(ctx.fingerprint)
                    continue
                if ctx.fingerprint in self.inflight:
                    continue
                job = _InflightJob(ctx.fingerprint)
                self.inflight[ctx.fingerprint] = job
                self._track(asyncio.ensure_future(self._run_job(job, ctx)))
            self.counters["recovered"] += 1

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests in, tagged event streams out."""
        write_lock = asyncio.Lock()
        pending: set = set()

        async def send(request_id, message) -> None:
            # ``message`` is an event, or one already encoded.
            if isinstance(message, dict):
                message = encode_message(message)
            async with write_lock:
                writer.write(tag_message(message, request_id))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ValueError:
                    await send(None, {"event": "error", "error": "malformed JSON line"})
                    continue
                op = message.get("op")
                request_id = message.get("id")
                if op == "ping":
                    await send(request_id, {"event": "pong", "protocol": PROTOCOL_VERSION})
                elif op == "stats":
                    await send(request_id, {"event": "stats", "stats": self.stats()})
                elif op == "shutdown":
                    # Drain before the reply: a client that hangs up
                    # without reading ``bye`` makes the write raise, and
                    # the shutdown must hold all the same.
                    self.begin_drain()
                    await send(request_id, {"event": "bye"})
                    break
                elif op == "submit":
                    task = asyncio.ensure_future(
                        self.submit(message, lambda m, r=request_id: send(r, m))
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                else:
                    await send(
                        request_id,
                        {"event": "error", "error": f"unknown op {op!r}"},
                    )
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-stream; jobs keep running for others
        finally:
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Start a graceful drain: refuse new compute, finish in-flight.

        Wired to SIGTERM (when the loop runs in the main thread) and to
        the ``shutdown`` op. New submissions that would start a compute
        are load-shed with a ``busy`` event; store hits and dedup
        subscriptions still answer. Jobs that outlive ``drain_timeout``
        stay journaled for the next boot."""
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    @staticmethod
    def _prepare_socket_path(path: str) -> None:
        """Probe a leftover unix-socket path before binding.

        A path that *answers* belongs to a live server — refuse with a
        typed :class:`~repro.errors.SocketInUseError` rather than
        unlinking it from under its clients. A path that refuses the
        connection (or is not a socket at all) is debris from a crashed
        server and is unlinked."""
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except OSError:
            # ECONNREFUSED / ENOTSOCK / timeout: a dead server's debris.
            try:
                os.unlink(path)
            except OSError:
                pass
        else:
            raise SocketInUseError(
                "refusing to bind: socket answers to a live server",
                path=path,
            )
        finally:
            probe.close()

    async def _drain_jobs(self) -> None:
        """Await in-flight job tasks, bounded by ``drain_timeout``.

        Anything still running at the deadline is cancelled on the loop
        side; its journal accept (no done-marker) replays next boot."""
        tasks = {task for task in self._job_tasks if not task.done()}
        if not tasks:
            return
        _done, unfinished = await asyncio.wait(
            tasks, timeout=self.drain_timeout
        )
        for task in unfinished:
            task.cancel()

    async def serve(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Bind and serve until a ``shutdown`` op, SIGTERM, or cancellation.

        Exactly one transport is used: the unix socket when
        ``socket_path`` is given, else TCP on ``host:port`` (``port=0``
        picks a free port — tests use this). ``on_ready`` receives a
        human-readable endpoint description after binding. With a
        journal armed and ``recover=True``, pending accepts replay into
        the scheduler right after binding."""
        self._stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main-thread loops (tests) have no signal access
        if socket_path is not None:
            self._prepare_socket_path(socket_path)
            server = await asyncio.start_unix_server(self._handle, path=socket_path)
            endpoint = f"unix:{socket_path}"
        else:
            server = await asyncio.start_server(self._handle, host, port or 0)
            bound = server.sockets[0].getsockname()
            self.bound_port = bound[1]
            endpoint = f"tcp:{bound[0]}:{bound[1]}"
        try:
            async with server:
                if self.journal is not None and self.recover:
                    self._track(asyncio.ensure_future(self._recover()))
                if on_ready is not None:
                    on_ready(endpoint)
                await self._stop.wait()
                self._draining = True
                server.close()
                await self._drain_jobs()
        finally:
            self.pool.shutdown(wait=False, cancel_futures=True)
            if self.journal is not None:
                self.journal.close()
            if socket_path is not None:
                try:
                    os.unlink(socket_path)
                except OSError:
                    pass
