"""The content-addressed result store (``REPRO_STORE``):

* a warm store serves byte-identical results without executing a single
  sample, across both the serial and the ``REPRO_JOBS`` suite paths;
* bumping the result schema (or the package version) changes every
  fingerprint, so stale entries recompute instead of being served;
* a reference override is its own entry, with its own ``error`` values;
* torn, truncated and foreign files load as misses and are overwritten;
* concurrent writers (process pools and threads) never corrupt an
  entry, and hit == miss byte for byte;
* ``REPRO_FAULTS`` disables the store entirely (chaos runs must stress
  recompute paths, not the cache);
* ``bench --grid`` records each config's commit log exactly once — the
  replay and store passes reuse it, never re-record.
"""

import json
import threading

import pytest

import repro.experiments.common as common
import repro.store.cas as cas
from repro.experiments.common import (
    ExperimentSetup,
    _sample_run_to_dict,
    calibrate_environment,
    experiment_store,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.observability.dashboard import load_report_data, render_report
from repro.store.cas import ResultStore, code_schema_tag, config_fingerprint
from repro.workloads import make_workload

SETUP = ExperimentSetup(
    scale="tiny", trace_count=3, invocations=2, trace_duration_ms=800
)
CONFIGS = [("precise", None), ("swv", 8)]


@pytest.fixture(scope="module")
def home():
    workload = make_workload("Home", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), SETUP)
    return workload, environment


def full_dicts(results):
    """Every field of every sample, metrics and ledger included."""
    return [[_sample_run_to_dict(run) for run in result.runs] for result in results]


def run_once(home):
    workload, environment = home
    return run_benchmark(workload, "swv", 8, "clank", SETUP, environment)


def forbid_execution(monkeypatch):
    """Any sample execution from here on fails the test."""
    monkeypatch.setattr(
        common, "_map_samples",
        lambda *a, **k: pytest.fail("sample executed despite a warm store"),
    )


class TestStoreHits:
    def test_hit_is_byte_identical_and_skips_execution(
        self, home, tmp_path, monkeypatch
    ):
        baseline = run_once(home)  # no store: the ground truth
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        miss = run_once(home)
        forbid_execution(monkeypatch)
        hit = run_once(home)
        assert full_dicts([hit]) == full_dicts([miss]) == full_dicts([baseline])

    def test_suite_path_uses_store_under_jobs(self, home, tmp_path, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        first = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        forbid_execution(monkeypatch)
        second = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(second) == full_dicts(first)

    def test_reference_override_gets_its_own_errors(
        self, home, tmp_path, monkeypatch
    ):
        workload, environment = home
        override = [value + 1.0 for value in workload.decoded_reference()]

        def errors(reference=None):
            result = run_benchmark(
                workload, "precise", None, "clank", SETUP, environment,
                reference=reference,
            )
            return [run.error for run in result.runs]

        expected = errors(override)  # no store: the ground truth
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        default = errors()
        assert errors(override) == expected != default

    def test_chaos_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert experiment_store() is not None
        monkeypatch.setenv("REPRO_FAULTS", "7")
        assert experiment_store() is None


class TestSelfInvalidation:
    def test_schema_bump_changes_fingerprint(self, home, monkeypatch):
        workload, environment = home
        args = ("Home", "tiny", "swv", 8, "clank", SETUP, environment)
        before_fp = config_fingerprint(*args)
        monkeypatch.setattr(cas, "RESULT_SCHEMA_VERSION", 999)
        assert code_schema_tag().endswith("/999")
        assert config_fingerprint(*args) != before_fp

    def test_schema_bump_forces_recompute(self, home, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        warm = run_once(home)
        monkeypatch.setattr(cas, "RESULT_SCHEMA_VERSION", 999)
        executed = []
        real = common._map_samples

        def counting(specs, jobs):
            executed.append(len(specs))
            return real(specs, jobs)

        monkeypatch.setattr(common, "_map_samples", counting)
        recomputed = run_once(home)
        # The old entry is unreachable under the bumped schema: the grid
        # really re-executed, and (determinism) matched the warm result.
        assert executed == [SETUP.trace_count * SETUP.invocations]
        assert full_dicts([recomputed]) == full_dicts([warm])


class TestRobustness:
    def entry_path(self, home, root):
        workload, environment = home
        fingerprint = config_fingerprint(
            "Home", "tiny", "swv", 8, "clank", SETUP, environment
        )
        return ResultStore(str(root)).path_for(fingerprint)

    @pytest.mark.parametrize(
        "corrupt",
        [
            b"",  # truncated to nothing
            b'{"schema": 1, "fingerprint": "wrong", "runs"',  # torn write
            b'{"schema": 0, "runs": []}',  # foreign/stale schema
            b"not json at all",
        ],
    )
    def test_torn_entry_recomputes_and_heals(
        self, home, tmp_path, monkeypatch, corrupt
    ):
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        pristine = run_once(home)
        path = self.entry_path(home, root)
        path.write_bytes(corrupt)
        healed = run_once(home)  # defect = miss: recompute + overwrite
        assert full_dicts([healed]) == full_dicts([pristine])
        assert json.loads(path.read_text())["runs"]  # entry is whole again

    def test_concurrent_same_key_writers_never_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        fingerprint = "ab" * 32
        payload = cas.result_payload(fingerprint, {"workload": "X"}, [{"n": 1}])
        errors = []

        def writer():
            try:
                for _ in range(20):
                    store.put(fingerprint, payload)
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.load(fingerprint) == payload
        # No temp litter: every writer's file was renamed or is its own.
        assert not list((tmp_path / "store").glob("*/.*.tmp"))


class TestGridRecordsOnce:
    def test_engine_passes_never_re_record(self, monkeypatch):
        """Calibration records the precise build and the warm-up pass
        the other two; the timed replay and store passes reuse those
        logs, so only the timed record phase records again."""
        import repro.benchmarking as benchmarking
        import repro.sim.replay as replay

        calls = []
        real = replay.record_run

        def timed(kernel, inputs):
            calls.append("timed")
            return real(kernel, inputs)

        def harness(kernel, inputs):
            calls.append("harness")
            return real(kernel, inputs)

        monkeypatch.setattr(replay, "record_run", timed)
        monkeypatch.setattr(common, "record_run", harness)
        common._worker_cache.clear()
        payload = benchmarking.run_grid_bench(reps=1, scale="tiny")
        # MatMul: one harness record per config before any timed pass,
        # then one timed rebuild per rep per config. The NN cross-check
        # (store off) records its own three configs through the harness,
        # so its identity verdict compares two computations.
        assert calls == ["harness"] * 3 + ["timed"] * 3 + ["harness"] * 3
        assert payload["grid"]["identical"]
        assert payload["grid"]["store_speedup"] > 1.0
        assert payload["nn"]["identical"]


class TestLiveReport:
    def test_dashboard_renders_store_section(self, home, tmp_path, monkeypatch):
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        run_once(home)
        data = load_report_data(store=str(root))
        assert len(data.store_rows) == 1
        assert data.store_stats["entries"] == 1
        text = render_report(data)
        assert "Result store" in text
        assert "Home/swv8/clank" in text
