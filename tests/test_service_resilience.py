"""Host-level resilience of the experiment service:

* the job journal survives torn tails, corrupt lines and duplicate
  accepts, and ``compact()`` keeps exactly the pending worklist;
* ``serve --recover`` replays pending accepts idempotently (store-first,
  re-fingerprinting stale keys) so no accepted job is ever lost;
* a stale unix socket from a crashed server is detected and unlinked,
  while a *live* server's socket is refused with a typed error;
* the client enforces a read deadline, reconnects + resubmits after a
  server restart, and honors ``busy`` load-shed rejections;
* the per-job wall-clock watchdog turns a hung compute into a typed
  ``job-timeout`` error and retires the job in the journal;
* a ``shutdown`` op holds even when its client hangs up before the
  ``bye`` reply.
"""

import asyncio
import json
import socket
import subprocess
import threading
import time

import pytest

from repro.errors import (
    ServiceBusy,
    ServiceDisconnected,
    ServiceTimeout,
    SocketInUseError,
)
from repro.fault.service_chaos import _spawn_server, _stop_server
from repro.service import ExperimentService, JobJournal, ServiceClient
from repro.service.journal import _sealed_line, pending_jobs, read_records
from repro.service.jobs import prepare
from repro.service.protocol import JobSpec

GRID = {"scale": "tiny", "trace_count": 2, "invocations": 1,
        "trace_duration_ms": 800}


def job(workload="MatMul", mode="precise", bits=None, runtime="clank"):
    return {"workload": workload, "mode": mode, "bits": bits,
            "runtime": runtime, **GRID}


class running_service:
    """One service on a fresh unix socket, own thread, arbitrary knobs."""

    def __init__(self, tmp_path, store=True, **kwargs):
        self.socket_path = str(tmp_path / "svc.sock")
        self.service = ExperimentService(
            store_dir=str(tmp_path / "store") if store else None, **kwargs
        )
        self.ready = threading.Event()

    def __enter__(self):
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.service.serve(
                    socket_path=self.socket_path,
                    on_ready=lambda _: self.ready.set(),
                )
            ),
            daemon=True,
        )
        self.thread.start()
        assert self.ready.wait(10), "service never came up"
        return self

    def __exit__(self, *exc_info):
        try:
            with ServiceClient.connect(self.socket_path, timeout=5) as client:
                client.shutdown()
        except OSError:
            pass
        self.thread.join(10)

    def client(self, **kwargs):
        return ServiceClient.connect(self.socket_path, timeout=10, **kwargs)


def await_drained(client, deadline_s=30.0):
    """Poll stats until the journal is drained and nothing is in flight."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        stats = client.stats()
        journal = stats.get("journal") or {}
        if not journal.get("pending") and not stats.get("inflight"):
            return stats
        time.sleep(0.05)
    raise AssertionError("journal never drained")


class TestJournal:
    def test_accept_done_lifecycle(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.accept("aa" * 32, {"workload": "MatMul"})
        journal.accept("bb" * 32, {"workload": "Home"})
        assert [fp for fp, _ in journal.pending()] == ["aa" * 32, "bb" * 32]
        journal.done("aa" * 32)
        assert [fp for fp, _ in journal.pending()] == ["bb" * 32]
        journal.fail("bb" * 32, "poisoned")
        assert journal.pending() == []
        journal.close()

    def test_torn_tail_and_corrupt_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.accept("aa" * 32, {"workload": "MatMul"})
        journal.close()
        with open(path, "ab") as file:
            # A bit-rotted middle line: valid JSON, wrong crc.
            file.write(b'{"crc":"00000000","fingerprint":"'
                       + b"cc" * 32 + b'","rec":"accept","seq":9}\n')
            # A torn tail: the write died mid-record, no newline.
            file.write(b'{"rec":"done","fingerprint":"' + b"aa" * 16)
        assert [r["fingerprint"] for r in read_records(path)] == ["aa" * 32]
        assert [fp for fp, _ in pending_jobs(path)] == ["aa" * 32]

    def test_duplicate_accepts_collapse(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        for _ in range(3):
            journal.accept("aa" * 32, {"workload": "MatMul"})
        assert len(journal.pending()) == 1
        journal.done("aa" * 32)
        assert journal.pending() == []
        journal.close()

    def test_compact_keeps_only_pending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.accept("aa" * 32, {"workload": "MatMul"})
        journal.done("aa" * 32)
        journal.accept("bb" * 32, {"workload": "Home"})
        assert journal.compact() == 1
        records = read_records(path)
        assert [(r["rec"], r["fingerprint"]) for r in records] == [
            ("accept", "bb" * 32)
        ]
        # The reopened descriptor keeps appending after the rewrite.
        journal.done("bb" * 32)
        assert journal.pending() == []
        journal.close()

    def test_crc_seal_round_trips(self):
        line = _sealed_line({"rec": "done", "seq": 1, "fingerprint": "ab"})
        record = json.loads(line)
        assert set(record) == {"rec", "seq", "fingerprint", "crc"}


class TestRecovery:
    def test_pending_accept_replays_to_store(self, tmp_path):
        spec = JobSpec.from_dict(job())
        fingerprint = prepare(spec).fingerprint
        journal_path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(journal_path)
        journal.accept(fingerprint, spec.to_dict())
        journal.close()

        with running_service(tmp_path, journal_path=journal_path) as svc:
            with svc.client() as client:
                stats = await_drained(client)
                assert stats["recovered"] == 1
                # The replayed job is a store hit for everyone now.
                result = client.submit(job(), full=True)
        assert result["source"] == "store"
        assert pending_jobs(journal_path) == []

    def test_stale_fingerprint_is_rekeyed_and_still_replays(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(journal_path)
        journal.accept("00" * 32, JobSpec.from_dict(job()).to_dict())
        journal.close()

        with running_service(tmp_path, journal_path=journal_path) as svc:
            with svc.client() as client:
                stats = await_drained(client)
                assert stats["recovered"] == 1
                assert client.submit(job())["source"] == "store"
        # The stale key was retired, the real one accepted and completed.
        recs = read_records(journal_path)
        assert ("fail", "00" * 32) in [
            (r["rec"], r["fingerprint"]) for r in recs
        ]

    def test_unreplayable_record_is_retired_not_looped(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(journal_path)
        journal.accept("11" * 32, {"workload": "NoSuchWorkload", "mode": "swv"})
        journal.close()

        with running_service(tmp_path, journal_path=journal_path) as svc:
            with svc.client() as client:
                await_drained(client)
        assert pending_jobs(journal_path) == []


class TestStaleSocket:
    def test_dead_socket_file_is_unlinked(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(path)
        leftover.close()  # no listener: connect will be refused
        ExperimentService._prepare_socket_path(path)
        assert not (tmp_path / "stale.sock").exists()

    def test_non_socket_debris_is_unlinked(self, tmp_path):
        path = tmp_path / "stale.sock"
        path.write_text("not a socket")
        ExperimentService._prepare_socket_path(str(path))
        assert not path.exists()

    def test_live_socket_is_refused(self, tmp_path):
        path = str(tmp_path / "live.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        try:
            with pytest.raises(SocketInUseError, match="live server"):
                ExperimentService._prepare_socket_path(path)
        finally:
            listener.close()

    def test_server_boots_over_crash_debris(self, tmp_path):
        # Regression: a crashed server's socket file must not block the
        # next boot.
        path = tmp_path / "svc.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        with running_service(tmp_path) as svc, svc.client() as client:
            assert client.ping()["protocol"] == 1


class TestClientResilience:
    def test_read_deadline_raises_typed_timeout(self, tmp_path):
        path = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)  # accepts via backlog, never answers
        try:
            with ServiceClient.connect(
                path, timeout=5, read_timeout=0.2
            ) as client:
                with pytest.raises(ServiceTimeout, match="read deadline"):
                    client.ping()
        finally:
            listener.close()

    @pytest.mark.parametrize("raw, deadline", [
        ("inf", None), ("1e400", None), ("1e10", None), ("nan", None),
        ("-1", None), ("soon", None), ("2.5", 2.5),
    ])
    def test_read_deadline_out_of_socket_range_means_none(
        self, monkeypatch, raw, deadline
    ):
        """``socket.settimeout`` overflows beyond about 1e9 s, so such a
        deadline, from the variable or the argument, means no deadline
        instead of crashing every client."""
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", raw)
        arguments = [{}] if raw == "soon" else [{}, {"read_timeout": float(raw)}]
        for kwargs in arguments:
            ours, peer = socket.socketpair()
            with peer, ServiceClient(ours, **kwargs) as client:
                assert client.read_timeout == deadline
                assert ours.gettimeout() == deadline

    def test_reconnect_and_resubmit_after_restart(self, tmp_path):
        with running_service(tmp_path) as svc:
            client = svc.client(retries=6, backoff=0.05)
            assert client.submit(job())["source"] == "computed"
        # Server gone; same socket path, same store, new server.
        retried = []
        with running_service(tmp_path):
            result = client.submit(
                job(), on_retry=lambda *a: retried.append(a)
            )
            client.close()
        assert result["source"] == "store"
        assert retried, "expected at least one reconnect attempt"
        # Send-side failures surface as raw OSErrors, read-side ones as
        # ServiceDisconnected; both are retryable by contract.
        assert isinstance(retried[0][1], (ServiceDisconnected, OSError))

    def test_raw_socket_client_cannot_reconnect(self, tmp_path):
        with running_service(tmp_path) as svc:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(svc.socket_path)
            client = ServiceClient(raw)
            assert client.ping()["protocol"] == 1
        with pytest.raises(ServiceDisconnected, match="raw socket"):
            client.submit(job(), retries=2, backoff=0.01)
        client.close()

    def test_busy_shed_is_typed_and_carries_retry_after(self, tmp_path):
        with running_service(tmp_path, max_pending=0) as svc:
            with svc.client() as client:
                with pytest.raises(ServiceBusy) as excinfo:
                    client.submit(job(), retries=0)
                assert excinfo.value.retry_after == 0.5
                # Retries back off and try again (still shed here).
                retried = []
                with pytest.raises(ServiceBusy):
                    client.submit(
                        job(), retries=2, backoff=0.01,
                        on_retry=lambda *a: retried.append(a),
                    )
                assert len(retried) == 2
                stats = client.stats()
        assert stats["busy_rejections"] == 4
        # The shed never journals or schedules anything.
        assert stats["computed"] == 0


class TestWatchdog:
    def test_hung_job_times_out_and_is_retired(self, tmp_path, monkeypatch):
        import repro.service.server as server_mod

        def hung_compute(ctx, progress=None):
            time.sleep(3.0)
            raise AssertionError("watchdog never fired")

        monkeypatch.setattr(server_mod, "compute", hung_compute)
        journal_path = str(tmp_path / "journal.jsonl")
        with running_service(
            tmp_path, journal_path=journal_path, job_timeout=0.3
        ) as svc:
            with svc.client() as client:
                with pytest.raises(ServiceTimeout, match="wall-clock"):
                    client.submit(job(), retries=0)
                stats = client.stats()
        assert stats["job_timeouts"] == 1
        # The fail record retires the job: recovery must not replay it.
        assert pending_jobs(journal_path) == []


class _HungUpWriter:
    """A stream writer whose client has gone: every drain raises."""

    def write(self, data):
        pass

    async def drain(self):
        raise BrokenPipeError

    def close(self):
        pass

    async def wait_closed(self):
        pass


class TestShutdown:
    def test_shutdown_holds_when_the_bye_write_fails(self):
        service = ExperimentService()

        async def scenario():
            service._stop = asyncio.Event()
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"op": "shutdown"}\n')
            reader.feed_eof()
            await service._handle(reader, _HungUpWriter())
            return service._stop.is_set()

        try:
            assert asyncio.run(scenario())
            assert service._draining
        finally:
            service.pool.shutdown()

    def test_server_exits_after_a_shutdown_the_client_never_read(self, tmp_path):
        socket_path = tmp_path / "svc.sock"
        server = _spawn_server(
            socket_path, tmp_path / "store", tmp_path / "journal.jsonl"
        )
        try:
            deadline = time.monotonic() + 30
            while True:
                assert server.poll() is None, "server exited before serving"
                assert time.monotonic() < deadline, "server never came up"
                try:
                    with socket.socket(socket.AF_UNIX) as probe:
                        probe.connect(str(socket_path))
                    break
                except OSError:
                    time.sleep(0.05)
            with socket.socket(socket.AF_UNIX) as raw:
                raw.connect(str(socket_path))
                raw.sendall(b'{"op": "shutdown"}\n')
            try:
                assert server.wait(timeout=10) == 0
            except subprocess.TimeoutExpired:
                pytest.fail("server kept serving after shutdown")
        finally:
            _stop_server(server)
