"""The async experiment service:

* one submission streams ``ack`` -> ``progressive`` (a usable level-k
  answer) -> ``result``, and the final runs match a direct
  :func:`~repro.experiments.common.run_benchmark` field for field;
* concurrent clients submitting overlapping grids pay for each distinct
  configuration exactly once (in-flight dedup + store);
* a resubmitted configuration is a pure store hit, and a repeated hit
  is answered from memory with the same bytes a store read gives;
* bad jobs come back as typed errors, not dead connections, also when a
  valid twin of theirs is memoized;
* the ``serve``/``submit``/``report --live`` CLI round-trips.
"""

import asyncio
import dataclasses
import json
import socket
import threading
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.__main__ import main
from repro.experiments import common
from repro.experiments.common import (
    ExperimentSetup,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
)
from repro.fault.service_chaos import _tamper_store_entry
from repro.service import ExperimentService, JobSpec, ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.jobs import prepare
from repro.service.journal import read_records
from repro.service.protocol import decode_message, encode_message, tag_message
from repro.store.cas import ResultStore
from repro.workloads import make_workload

GRID = {"scale": "tiny", "trace_count": 3, "invocations": 2,
        "trace_duration_ms": 800}


def job(workload="Home", mode="swv", bits=8, runtime="clank"):
    return {"workload": workload, "mode": mode, "bits": bits,
            "runtime": runtime, **GRID}


class running_service:
    """Context manager: one service on a fresh unix socket, own thread."""

    def __init__(self, tmp_path, store=True, journal=None):
        self.socket_path = str(tmp_path / "svc.sock")
        self.service = ExperimentService(
            store_dir=str(tmp_path / "store") if store else None,
            journal_path=journal,
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

    def client(self):
        return ServiceClient.connect(self.socket_path, timeout=10)


@pytest.fixture()
def direct_runs():
    """Ground truth: the same grid run directly, full sample dicts.

    On the replay engine, like the service computes — sample fields are
    engine-identical by contract, but the metrics rollups *record*
    which engine ran, so a field-for-field comparison must match it."""
    setup = ExperimentSetup(**GRID)
    workload = make_workload("Home", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    result = run_benchmark(workload, "swv", 8, "clank", setup, environment)
    return [dataclasses.asdict(run) for run in result.runs]


class TestSingleSubmission:
    def test_progressive_before_final_and_matches_direct(
        self, tmp_path, direct_runs
    ):
        events = []
        with running_service(tmp_path) as svc, svc.client() as client:
            result = client.submit(job(), full=True, on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "ack"
        assert "progressive" in kinds
        assert kinds.index("progressive") < kinds.index("result")
        level_k = events[kinds.index("progressive")]
        assert level_k["stage"] == "level-k"
        assert level_k["samples_done"] == 1
        assert level_k["samples_total"] == 6
        # The anytime preview is the grid's real first sample.
        assert level_k["sample"]["wall_ms"] == direct_runs[0]["wall_ms"]
        assert level_k["sample"]["error"] == direct_runs[0]["error"]
        assert result["source"] == "computed"
        assert result["runs"] == direct_runs

    def test_resubmission_is_pure_store_hit(self, tmp_path):
        with running_service(tmp_path) as svc:
            with svc.client() as client:
                first = client.submit(job(), full=True)
            events = []
            with svc.client() as client:
                second = client.submit(job(), full=True,
                                       on_event=events.append)
                stats = client.stats()
            assert events[0]["cached"] is True
            assert second["source"] == "store"
            assert second["runs"] == first["runs"]
            assert stats["computed"] == 1
            assert stats["store_hits"] == 1

    def test_bad_jobs_are_typed_errors(self, tmp_path):
        with running_service(tmp_path) as svc, svc.client() as client:
            with pytest.raises(ServiceError, match="unknown workload"):
                client.submit(job(workload="NoSuch"))
            with pytest.raises(ServiceError, match="invalid bits"):
                client.submit(job(bits=7))
            # The connection survives errors: a good job still works.
            assert client.ping()["protocol"] == 1
            assert client.submit(job())["source"] in ("computed", "store")


class TestPrepare:
    @pytest.mark.parametrize(
        "spec, message",
        [
            (job(workload="MatAdd", mode="swv", bits=2), "invalid bits"),
            (job(workload="MatMul", mode="swv", bits=8), "swp kernel"),
            (job(workload="MatAdd", mode="swp", bits=8), "swv kernel"),
            ({**job(), "trace_count": "2"}, "trace_count must be an integer"),
            ({**job(), "trace_count": 2.5}, "trace_count must be an integer"),
            ({**job(), "trace_duration_ms": 0}, "must be >= 1"),
            (job(workload="MatMul", mode="swp", bits=True), "invalid bits"),
            ({**job(), "trace_count": 10**8}, "above the limit of 1000"),
            ({**job(), "trace_duration_ms": 10**9}, "above the limit of 1000000"),
        ],
    )
    def test_unrunnable_job_rejected_before_journal_accept(
        self, tmp_path, monkeypatch, spec, message
    ):
        # A job that never gets its terminal event fails, not hangs.
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "20")
        path = str(tmp_path / "journal.jsonl")
        events = []
        with running_service(tmp_path, journal=path) as svc, svc.client() as client:
            with pytest.raises(ServiceError, match=message):
                client.submit(spec, on_event=events.append)
            stats = client.stats()
        assert [event["event"] for event in events] == ["error"]
        assert read_records(path) == []
        assert stats["computed"] == 0

    def test_one_job_builds_its_workload_once(self, monkeypatch):
        """``prepare`` and ``compute`` (preview included) share the
        harness's workload: the service keeps no copy of its own."""
        from repro import workloads
        from repro.service import jobs

        common._worker_workloads.clear()
        common._worker_cache.clear()
        built = []
        factory = workloads._FACTORIES["Home"]
        monkeypatch.setitem(
            workloads._FACTORIES, "Home",
            lambda **kwargs: built.append(kwargs) or factory(**kwargs),
        )
        ctx = jobs.prepare(JobSpec.from_dict(job()))
        stages = []
        jobs.compute(ctx, lambda stage, _payload: stages.append(stage))
        assert stages == ["level-k"]
        assert built == [{"scale": "tiny"}]

    def test_a_job_evaluates_no_ir(self, monkeypatch):
        """The reference comes off the precise build's commit log, which
        calibration records anyway, so a default-scale CNN job, preview
        included, never runs the IR interpreter."""
        from repro.compiler import ir
        from repro.core import anytime
        from repro.service import jobs

        common._worker_workloads.clear()
        common._worker_cache.clear()
        common._worker_references.clear()
        calls = []
        real = ir.evaluate

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(ir, "evaluate", counting)
        monkeypatch.setattr(anytime, "evaluate", counting)
        spec = dict(job(workload="CNN", mode="swp", bits=4), scale="default")
        ctx = jobs.prepare(JobSpec.from_dict(spec))
        jobs.compute(ctx, lambda *_args: None)
        assert calls == []

    def test_precise_jobs_ignore_bits(self):
        ctx = prepare(JobSpec.from_dict(job(workload="MatMul", mode="precise", bits=8)))
        plain = prepare(JobSpec.from_dict(job(workload="MatMul", mode="precise", bits=None)))
        assert ctx.fingerprint == plain.fingerprint
        assert ctx.spec.bits is None


class TestMemoizedHits:
    """A hit this process has answered before comes from memory."""

    @staticmethod
    def _without_ids(events):
        return [{k: v for k, v in e.items() if k != "id"} for e in events]

    def test_third_submission_reads_no_store(self, tmp_path, monkeypatch):
        loads = []
        real_load = ResultStore.load

        def counting_load(store, fingerprint):
            loads.append(fingerprint)
            return real_load(store, fingerprint)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        with running_service(tmp_path) as svc, svc.client() as client:
            client.submit(job(), full=True)
            rounds = []
            for _ in range(2):
                events = []
                client.submit(job(), full=True, on_event=events.append)
                rounds.append(self._without_ids(events))
            summary = client.submit(job())
            stats = client.stats()
        assert rounds[1] == rounds[0]
        assert rounds[0][-1]["source"] == "store"
        assert "runs" not in summary
        assert summary["metrics"] == rounds[0][-1]["metrics"]
        # The first submission's miss and the second's hit read the
        # store; the memo answered the rest.
        assert len(loads) == 2
        assert stats["store_hits"] == 3
        assert stats["store"]["hits"] == 1

    def test_raw_socket_string_id_gets_its_tagged_lines(self, tmp_path):
        request = encode_message(
            {"op": "submit", "id": "req-\u00e9", "job": job(), "full": True}
        )
        with running_service(tmp_path) as svc:
            with svc.client() as client:
                client.submit(job())
            streams = []
            for _ in range(2):  # a store read, then the memo
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                    raw.settimeout(20)
                    raw.connect(svc.socket_path)
                    raw.sendall(request)
                    with raw.makefile("rb") as reader:
                        streams.append([reader.readline(), reader.readline()])
        assert streams[1] == streams[0]
        events = [decode_message(line) for line in streams[0]]
        assert [e["event"] for e in events] == ["ack", "result"]
        assert events[1]["source"] == "store"
        for line, event in zip(streams[0], events):
            request_id = event.pop("id")
            assert request_id == "req-\u00e9"
            assert line == encode_message({**event, "id": request_id})

    @pytest.mark.parametrize(
        "twin, invalid, message",
        [
            ({**job(), "trace_seed": 1}, {**job(), "trace_seed": 1.0},
             "trace_seed must be an integer"),
            ({**job(), "trace_seed": 1}, {**job(), "trace_seed": True},
             "trace_seed must be an integer"),
            ({**job(), "trace_seed": 1}, {**job(), "trace_seed": "1"},
             "trace_seed must be an integer"),
            (job(workload="MatMul", mode="swp", bits=1),
             job(workload="MatMul", mode="swp", bits=True), "invalid bits"),
        ],
    )
    def test_invalid_twin_of_a_memoized_job_is_rejected(
        self, tmp_path, monkeypatch, twin, invalid, message
    ):
        """Python hashes ``1``, ``1.0`` and ``True`` alike, so a memo
        consulted before validation would serve these."""
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "20")
        with running_service(tmp_path) as svc, svc.client() as client:
            client.submit(twin)
        path = str(tmp_path / "journal.jsonl")
        events = []
        with running_service(tmp_path, journal=path) as svc, svc.client() as client:
            assert client.submit(twin)["source"] == "store"
            with pytest.raises(ServiceError, match=message):
                client.submit(invalid, on_event=events.append)
            stats = client.stats()
        assert [event["event"] for event in events] == ["error"]
        assert read_records(path) == []
        assert stats["computed"] == 0

    @pytest.mark.parametrize("bits", [[1], {"x": 1}])
    def test_precise_job_ignores_unhashable_bits(self, tmp_path, monkeypatch, bits):
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "20")
        plain = job(mode="precise", bits=None)
        with running_service(tmp_path) as svc, svc.client() as client:
            result = client.submit({**plain, "bits": bits})
            again = client.submit(plain)
        assert result["fingerprint"] == prepare(JobSpec.from_dict(plain)).fingerprint
        assert again["fingerprint"] == result["fingerprint"]
        assert again["source"] == "store"

    def test_services_on_different_stores_share_no_hit(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with running_service(tmp_path / "a") as first, \
                running_service(tmp_path / "b") as second:
            with first.client() as client:
                client.submit(job())
                assert client.submit(job())["source"] == "store"
            with second.client() as client:
                result = client.submit(job())
                stats = client.stats()
        assert result["source"] == "computed"
        assert stats["computed"] == 1
        assert stats["store_hits"] == 0

    def test_bit_rot_is_served_but_not_kept_so_fsck_heals_it(self, tmp_path):
        store_dir = tmp_path / "store"
        with running_service(tmp_path) as svc, svc.client() as client:
            truth = client.submit(job(), full=True)
            [entry] = store_dir.glob("*/*.json")
            _tamper_store_entry(entry, "tamper")
            rotten = client.submit(job(), full=True)
            code = main(["store", "fsck", "--store", str(store_dir), "--repair"])
            healed = client.submit(job(), full=True)
            stats = client.stats()
        assert code == 0
        assert rotten["source"] == "store"
        assert rotten["runs"][0]["wall_ms"] == truth["runs"][0]["wall_ms"] + 1.0
        assert healed["source"] == "computed"
        assert healed["runs"] == truth["runs"]
        assert stats["computed"] == 2

    def test_hits_above_the_cache_budget_answer_from_disk(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 1)
        with running_service(tmp_path) as svc, svc.client() as client:
            first = client.submit(job(), full=True)
            hits = [client.submit(job(), full=True) for _ in range(2)]
            stats = client.stats()
        assert [hit["source"] for hit in hits] == ["store", "store"]
        assert hits[0]["runs"] == hits[1]["runs"] == first["runs"]
        assert stats["store"]["hits"] == 2
        assert stats["cache"]["bytes"] == 0


class TestMemoryStats:
    def test_stats_report_the_process_peak_rss(self, tmp_path):
        before = server_module._peak_rss_mb()
        with running_service(tmp_path, store=False) as svc, svc.client() as client:
            memory = client.stats()["memory"]
        assert set(memory) == {"peak_rss_mb"}
        assert before <= memory["peak_rss_mb"] <= server_module._peak_rss_mb()

    @pytest.mark.parametrize("platform, maxrss", [
        ("linux", 100 << 10), ("darwin", 100 << 20),
    ])
    def test_peak_rss_reads_in_mib(self, monkeypatch, platform, maxrss):
        """``ru_maxrss`` is in KiB on Linux and in bytes on macOS."""
        monkeypatch.setattr(server_module.sys, "platform", platform)
        monkeypatch.setattr(
            server_module.resource, "getrusage",
            lambda _who: types.SimpleNamespace(ru_maxrss=maxrss),
        )
        assert server_module._peak_rss_mb() == 100.0



_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    event=st.dictionaries(
        st.text(max_size=8).filter(lambda key: key != "id"), _JSON_VALUES,
        max_size=5,
    ),
    request_id=_JSON_VALUES,
)
@example(event={"event": "result", "x": float("nan")}, request_id=-7)
@example(event={"inf": [float("inf"), -float("inf")]}, request_id=2**64 + 1)
@example(event={"text": "\u00e9\u2603"}, request_id=0.5)
@example(event={}, request_id="\u00e9\U0001f600")
@example(event={"a": 1}, request_id=None)
@example(event={"a": 1}, request_id=True)
@example(event={"a": 1}, request_id=[1, [2, {"b": None}]])
@example(event={"a": 1}, request_id={"k": [1, 2], "j": {"x": "y"}})
def test_tag_message_equals_encoding_with_the_id(event, request_id):
    """What ``send`` wrote before encoded answers were kept: the id
    appended to the event, then the whole message encoded."""
    tagged = event if request_id is None else {**event, "id": request_id}
    assert tag_message(encode_message(event), request_id) == encode_message(tagged)


class TestConcurrentClients:
    def test_overlapping_grids_compute_each_config_once(self, tmp_path):
        # 4 clients x 3 configs, all overlapping: 3 distinct fingerprints.
        configs = [job(mode="precise", bits=None), job(bits=8), job(bits=4)]
        results = {}
        errors = []

        def one_client(n, svc):
            try:
                with svc.client() as client:
                    results[n] = [
                        client.submit(spec, full=True) for spec in configs
                    ]
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        with running_service(tmp_path) as svc:
            threads = [
                threading.Thread(target=one_client, args=(n, svc))
                for n in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            with svc.client() as client:
                stats = client.stats()
        assert not errors
        assert len(results) == 4
        # Every client got every config, and they all agree exactly.
        for n in range(1, 4):
            assert [r["runs"] for r in results[n]] == \
                [r["runs"] for r in results[0]]
        # Dedup did its job: 12 submissions, 3 computations.
        assert stats["submissions"] == 12
        assert stats["computed"] == len(configs)
        assert stats["store_hits"] + stats["inflight_dedups"] == 12 - len(configs)
        assert stats["errors"] == 0
        assert stats["store"]["entries"] == len(configs)


class TestJobSpec:
    def test_round_trip_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({**job(), "future_knob": True})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_needs_workload_and_mode(self):
        with pytest.raises(ValueError, match="workload"):
            JobSpec.from_dict({"mode": "swv"})
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "dict"])


class TestCLI:
    def test_submit_and_live_report(self, tmp_path, capsys, monkeypatch):
        with running_service(tmp_path) as svc:
            code = main([
                "submit", "Home", "--mode", "swv", "--scale", "tiny",
                "--traces", "3", "--invocations", "2",
                "--socket", svc.socket_path,
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "level-k: first answer after 1/6 samples" in out
            assert "result [computed] Home/swv8/clank: 6 samples" in out

            code = main([
                "submit", "Home", "--mode", "swv", "--scale", "tiny",
                "--traces", "3", "--invocations", "2",
                "--socket", svc.socket_path, "--json",
            ])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["source"] == "store"

        code = main([
            "report", "--store", str(tmp_path / "store"),
            "--history", str(tmp_path / "none.jsonl"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Result store" in out
        assert "Home/swv" in out

    def test_live_without_store_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["report", "--live"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err
