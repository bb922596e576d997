"""The runtime table: the one place an intermittent runtime is declared.

Every per-runtime decision outside the runtime classes lives in one row
of :data:`RUNTIMES`:

* ``live`` builds the interpreter's runtime
  (:class:`~repro.runtime.base.IntermittentRuntime`) from
  ``(kernel, skim, watchdog_cycles)``;
* ``replay`` builds its :class:`~repro.runtime.base.ReplayPolicy` twin
  from ``(record, kernel, skim, watchdog_cycles)``;
* ``backup_overhead`` is the per-cycle energy tax of a core that backs
  up every cycle (NVP), charged through the supply's
  :class:`~repro.power.energy.EnergyModel`;
* ``calibrated_watchdog`` says whether the runtime takes the harness's
  calibrated watchdog period or keeps its own.

``kernel`` is the :class:`~repro.core.anytime.AnytimeKernel` being run
(progress commits at stores into its output slots), ``skim`` is the
non-volatile skim register (``None``: a fresh one) and
``watchdog_cycles`` the period (``None``: the runtime's default).
Whether the core loses its registers on an outage is a class attribute
of the runtimes themselves (``volatile_core``), as is
``atomic_commit``.

The interpreter (``AnytimeKernel.run_intermittent``), the replay engine
(``run_batch_group``), the harness's energy model and watchdog, the
chaos campaign, the service's job validation and the CLI all read this
table, and :func:`runtime_row` is the only lookup. The order is part of
the contract: the chaos campaign deals scenarios to runtimes
round-robin in table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..power.energy import EnergyModel
from .base import IntermittentRuntime, ReplayPolicy
from .clank import ClankReplayPolicy, ClankRuntime
from .hibernus import HibernusReplayPolicy, HibernusRuntime
from .nvp import NVPReplayPolicy, NVPRuntime
from .progress import (
    ProgressReplayPolicy,
    ProgressRuntime,
    output_ranges_of,
    output_store_positions,
)


@dataclass(frozen=True)
class RuntimeRow:
    """One runtime's declaration (fields as in the module docstring)."""

    name: str
    live: Callable[..., IntermittentRuntime]
    replay: Callable[..., ReplayPolicy]
    backup_overhead: float = 0.0
    calibrated_watchdog: bool = False

    def energy_model(self) -> EnergyModel:
        """The supply's energy model under this runtime."""
        return EnergyModel(backup_overhead=self.backup_overhead)

    def watchdog(self, calibrated: int) -> Optional[int]:
        """The watchdog period the factories get: ``calibrated`` when
        the runtime takes it, else ``None`` (its own default)."""
        return calibrated if self.calibrated_watchdog else None


def _period(watchdog_cycles: Optional[int]) -> dict:
    return {} if watchdog_cycles is None else {"watchdog_cycles": watchdog_cycles}


RUNTIMES = (
    RuntimeRow(
        "clank",
        live=lambda kernel, skim, watchdog_cycles: ClankRuntime(
            skim=skim, **_period(watchdog_cycles)
        ),
        replay=lambda record, kernel, skim, watchdog_cycles: ClankReplayPolicy(
            record, skim, **_period(watchdog_cycles)
        ),
        calibrated_watchdog=True,
    ),
    RuntimeRow(
        "progress",
        live=lambda kernel, skim, watchdog_cycles: ProgressRuntime(
            output_ranges_of(kernel), skim=skim, **_period(watchdog_cycles)
        ),
        replay=lambda record, kernel, skim, watchdog_cycles: ProgressReplayPolicy(
            record, skim,
            output_store_positions(record, output_ranges_of(kernel)),
            **_period(watchdog_cycles),
        ),
        calibrated_watchdog=True,
    ),
    RuntimeRow(
        "nvp",
        live=lambda kernel, skim, watchdog_cycles: NVPRuntime(skim=skim),
        replay=lambda record, kernel, skim, watchdog_cycles: NVPReplayPolicy(
            record, skim
        ),
        # Energy for the non-volatile flip-flops' every-cycle backup.
        backup_overhead=0.2,
    ),
    RuntimeRow(
        "hibernus",
        live=lambda kernel, skim, watchdog_cycles: HibernusRuntime(skim=skim),
        replay=lambda record, kernel, skim, watchdog_cycles: HibernusReplayPolicy(
            record, skim
        ),
    ),
)

#: Runtime names in table order.
RUNTIME_NAMES = tuple(row.name for row in RUNTIMES)

_BY_NAME = {row.name: row for row in RUNTIMES}


def runtime_row(name: str) -> RuntimeRow:
    """The row declaring runtime ``name``; ``ValueError`` if none does."""
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown runtime {name!r} (want one of {', '.join(RUNTIME_NAMES)})"
        ) from None
