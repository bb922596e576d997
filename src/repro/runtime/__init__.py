"""Intermittent-computing runtimes: checkpointing, NVP, skim points.

:mod:`repro.runtime.table` declares each runtime in one row.
"""

from .base import IntermittentRuntime, RuntimeStats
from .checkpoint import Checkpoint
from .skim import SkimRegister
from .clank import (
    ClankRuntime,
    DEFAULT_CHECKPOINT_CYCLES,
    DEFAULT_RESTORE_CYCLES,
    DEFAULT_WATCHDOG_CYCLES,
)
from .hibernus import HibernusRuntime
from .nvp import NVPRuntime
from .executor import IntermittentExecutor, RunResult, run_continuous
from .stream import ProcessedSample, StreamResult, process_stream

__all__ = [
    "Checkpoint",
    "ClankRuntime",
    "DEFAULT_CHECKPOINT_CYCLES",
    "DEFAULT_RESTORE_CYCLES",
    "DEFAULT_WATCHDOG_CYCLES",
    "HibernusRuntime",
    "IntermittentExecutor",
    "IntermittentRuntime",
    "NVPRuntime",
    "ProcessedSample",
    "RunResult",
    "RuntimeStats",
    "SkimRegister",
    "StreamResult",
    "process_stream",
    "run_continuous",
]
