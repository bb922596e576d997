"""The self-healing experiment harness:

* a worker process dying mid-grid never kills the run — its
  configuration group is retried serially with one aggregated stderr
  warning and the results are identical to an undisturbed run;
* ``REPRO_STORE=<dir>`` persists per-config results atomically, so an
  interrupted ``REPRO_JOBS=4`` grid resumes bit-identically, re-running
  only the configurations it lost;
* ``REPRO_SAMPLE_TIMEOUT`` converts a pathological sample into a typed
  :class:`~repro.errors.SampleTimeout` instead of a hang;
* ``REPRO_FAULTS=<seed>`` swaps in deterministic adversarial traces.
"""

import dataclasses
import os
import threading
import time

import pytest

import repro.experiments.common as common
from repro.errors import IncompleteRun, SampleTimeout
from repro.experiments.common import (
    ExperimentSetup,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.runtime.executor import (
    check_sample_deadline,
    sample_deadline_armed,
    set_sample_deadline,
)
from repro.store.cas import config_fingerprint
from repro.workloads import make_workload

SETUP = ExperimentSetup(
    scale="tiny", trace_count=3, invocations=2, trace_duration_ms=800
)
CONFIGS = [("precise", None), ("swv", 8)]
#: Bound on every thread handshake and join in the deadline tests.
WAIT_S = 10.0


@pytest.fixture(scope="module")
def home():
    workload = make_workload("Home", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), SETUP)
    return workload, environment


@pytest.fixture(scope="module")
def reference(home):
    workload, environment = home
    return run_benchmark(workload, "precise", None, "clank", SETUP, environment)


def full_dicts(results):
    """Every field of every sample, metrics and ledger included."""
    return [[dataclasses.asdict(run) for run in result.runs] for result in results]


#: The pool's unit of work is one configuration group; the stand-ins
#: below replace it. They live at module level so the pool can pickle
#: them.
_PARENT = os.getpid()
_real_group = common._run_config_group


def _killing_group(specs):
    # Simulate the OOM killer taking one worker mid-group; the parent
    # (serial retry) is never killed.
    if os.getpid() != _PARENT and specs[0].mode == "swv":
        os._exit(1)
    return _real_group(specs)


def _incomplete_group(specs):
    raise IncompleteRun("sample can never finish", outages=9)


class TestWorkerCrashRecovery:
    def test_killed_worker_heals_to_identical_results(
        self, home, monkeypatch, capfd
    ):
        workload, environment = home
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        monkeypatch.setattr(common, "_run_config_group", _killing_group)
        monkeypatch.setenv("REPRO_JOBS", "4")
        healed = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(healed) == full_dicts(serial)
        err = capfd.readouterr().err
        assert err.count("retrying") == 1  # one aggregated warning
        assert "worker" in err

    def test_deterministic_failure_still_surfaces_typed(
        self, home, monkeypatch, capfd
    ):
        workload, environment = home
        monkeypatch.setattr(common, "_run_config_group", _incomplete_group)
        monkeypatch.setenv("REPRO_JOBS", "4")
        # The pool's failures are retried serially; the retry fails the
        # same way, so the typed error propagates instead of being eaten.
        with pytest.raises(IncompleteRun):
            run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        capfd.readouterr()  # swallow the expected retry warning


class TestResume:
    def test_interrupted_parallel_grid_resumes_bit_identical(
        self, home, monkeypatch, tmp_path
    ):
        workload, environment = home
        monkeypatch.setenv("REPRO_JOBS", "4")
        uninterrupted = run_benchmark_suite(
            workload, CONFIGS, "clank", SETUP, environment
        )

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        # "Interrupt": only the first config finished before the crash.
        run_benchmark_suite(workload, CONFIGS[:1], "clank", SETUP, environment)

        executed = []
        real = common._map_samples

        def recording(specs, jobs):
            executed.extend((spec.mode, spec.bits) for spec in specs)
            return real(specs, jobs)

        monkeypatch.setattr(common, "_map_samples", recording)
        resumed = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(resumed) == full_dicts(uninterrupted)
        # Only the configuration the interrupted run lost executed.
        assert executed == [CONFIGS[1]] * (SETUP.trace_count * SETUP.invocations)

    @pytest.mark.parametrize(
        "variant, changes",
        [
            (lambda workload, env: (
                dataclasses.replace(env, capacitor_f=env.capacitor_f * 2), None
            ), True),
            (lambda workload, env: (
                env, [value + 1.0 for value in workload.decoded_reference()]
            ), True),
            (lambda workload, env: (
                env, list(workload.decoded_reference())
            ), False),
        ],
        ids=["environment", "reference-override", "default-reference-spelled-out"],
    )
    def test_fingerprint_changes_exactly_when_samples_can(
        self, home, variant, changes
    ):
        """A changed environment or a real reference override gets its
        own store entry; the default reference spelled out shares the
        default's entry."""
        workload, environment = home

        def fingerprint(env, reference):
            return config_fingerprint(
                workload.name, workload.scale, "precise", None, "clank",
                SETUP, env, common._fingerprint_reference(workload, reference),
            )

        base = fingerprint(environment, None)
        assert (fingerprint(*variant(workload, environment)) != base) is changes


class TestSampleTimeout:
    def test_expired_deadline_raises_typed_timeout(self, home):
        workload, environment = home
        kernel = common.build_anytime(workload, "precise")
        set_sample_deadline(time.monotonic() - 1.0)
        try:
            with pytest.raises(SampleTimeout):
                kernel.run_intermittent(
                    workload.inputs,
                    SETUP.traces()[0],
                    runtime="clank",
                    capacitor=environment.capacitor(),
                    watchdog_cycles=environment.watchdog_cycles,
                )
        finally:
            set_sample_deadline(None)

    def test_env_knob_arms_and_clears_the_deadline(self, home, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "0.0000001")
        with pytest.raises(SampleTimeout):
            run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        # The deadline must not leak into later (untimed) samples.
        monkeypatch.delenv("REPRO_SAMPLE_TIMEOUT")
        from repro.runtime import executor

        assert not executor.sample_deadline_armed()

    def test_other_threads_clear_leaves_this_deadline_armed(self):
        """``repro serve`` runs jobs on a thread pool: one job clearing
        its own deadline must not disarm another's."""
        armed, cleared = threading.Event(), threading.Event()
        outcome = {}

        def job_a():
            set_sample_deadline(time.monotonic() - 1.0)
            armed.set()
            try:
                outcome["b cleared"] = cleared.wait(WAIT_S)
                check_sample_deadline(0)
            except SampleTimeout:
                outcome["a"] = "timeout"
            else:
                outcome["a"] = "ran on"
            finally:
                set_sample_deadline(None)

        def job_b():
            outcome["a armed"] = armed.wait(WAIT_S)
            set_sample_deadline(time.monotonic() + 60.0)
            set_sample_deadline(None)
            cleared.set()

        threads = [threading.Thread(target=job_a), threading.Thread(target=job_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
            assert not thread.is_alive()
        assert outcome == {"a armed": True, "b cleared": True, "a": "timeout"}

    def test_other_threads_deadline_does_not_reach_this_one(self):
        armed, checked = threading.Event(), threading.Event()

        def job_b():
            set_sample_deadline(time.monotonic() - 1.0)
            armed.set()
            checked.wait(WAIT_S)
            set_sample_deadline(None)

        thread = threading.Thread(target=job_b)
        thread.start()
        try:
            assert armed.wait(WAIT_S)
            assert not sample_deadline_armed()
            check_sample_deadline(0)
        finally:
            checked.set()
            thread.join(WAIT_S)
        assert not thread.is_alive()

    def test_invalid_value_warns_once_and_disables(self, monkeypatch, capfd):
        for value in ("soon", "nan", "inf"):
            monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", value)
            monkeypatch.setattr(common, "_warned_switches", set())
            assert common.experiment_sample_timeout() is None, value
            assert common.experiment_sample_timeout() is None, value
            err = capfd.readouterr().err
            assert err.count("REPRO_SAMPLE_TIMEOUT") == 1, value


class TestFaultsKnob:
    def test_adversarial_traces_are_deterministic(self, home, reference, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_FAULTS", "42")
        first = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        second = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        assert first.runs == second.runs
        assert first.runs != reference.runs  # the power really changed

    def test_invalid_seed_warns_once_and_disables(self, monkeypatch, capfd):
        monkeypatch.setenv("REPRO_FAULTS", "lots")
        monkeypatch.setattr(common, "_warned_switches", set())
        assert common.experiment_faults() is None
        assert common.experiment_faults() is None
        assert capfd.readouterr().err.count("REPRO_FAULTS") == 1
