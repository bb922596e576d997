"""The runtime table (``repro.runtime.table``) is the one declaration of
each runtime: every entry point offers exactly its names, in its order,
and an unknown name fails the same way everywhere."""

import re

import pytest

from repro.__main__ import main
from repro.experiments.common import build_anytime
from repro.fault.campaign import DEFAULT_RUNTIMES, generate_scenarios
from repro.power import Capacitor, EnergyModel, wifi_trace
from repro.runtime.batch_executor import run_batch_group
from repro.runtime.skim import SkimRegister
from repro.runtime.table import RUNTIME_NAMES, RUNTIMES, runtime_row
from repro.service.protocol import JobSpec
from repro.sim.replay import record_run
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def matadd():
    workload = make_workload("MatAdd", "tiny")
    kernel = build_anytime(workload, "precise")
    return workload, kernel, record_run(kernel, workload.inputs)


def _cli_runtime_choices(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    return tuple(re.search(r"--runtime \{([^}]*)\}", usage).group(1).split(","))


def _validates(runtime):
    try:
        JobSpec("MatAdd", "precise", runtime=runtime).validate()
    except ValueError:
        return False
    return True


def test_every_entry_point_offers_the_table_in_order(capsys):
    assert RUNTIME_NAMES == ("clank", "progress", "nvp", "hibernus")
    assert _cli_runtime_choices(capsys, "submit") == RUNTIME_NAMES
    assert _cli_runtime_choices(capsys, "bench") == RUNTIME_NAMES
    assert DEFAULT_RUNTIMES == RUNTIME_NAMES
    dealt = generate_scenarios(seed=1, count=len(RUNTIME_NAMES))
    assert tuple(scenario.runtime for scenario in dealt) == RUNTIME_NAMES
    candidates = RUNTIME_NAMES + ("alpaca", "Clank", "")
    assert tuple(name for name in candidates if _validates(name)) == RUNTIME_NAMES


def test_unknown_runtime_raises_one_error(matadd):
    workload, kernel, record = matadd
    trace = wifi_trace(duration_ms=200, seed=0)
    with pytest.raises(ValueError) as expected:
        runtime_row("alpaca")
    calls = [
        lambda: kernel.run_intermittent(workload.inputs, trace, runtime="alpaca"),
        lambda: run_batch_group(kernel, record, workload.inputs, [dict(
            trace=trace, runtime="alpaca", capacitor=Capacitor(),
            energy_model=EnergyModel(), start_tick=0, max_wall_ms=1000,
        )]),
        lambda: JobSpec("MatAdd", "precise", runtime="alpaca").validate(),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("row", RUNTIMES, ids=RUNTIME_NAMES)
def test_row_live_and_replay_twins_agree(matadd, row):
    """A row's live runtime and replay policy are the same runtime: same
    name, same volatility, and the same watchdog period."""
    workload, kernel, record = matadd
    period = row.watchdog(1234)
    live = row.live(kernel, None, period)
    policy = row.replay(record, kernel, SkimRegister(), period)
    assert live.name == policy.name == row.name
    assert live.volatile_core == policy.volatile_core
    assert (period is not None) == row.calibrated_watchdog
    if period is not None:
        assert live.watchdog_cycles == policy.watchdog_cycles == period
    assert row.energy_model().backup_overhead == row.backup_overhead
