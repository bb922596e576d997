"""Cycle-level simulation substrate: memory, functional units, CPU."""

from .memory import (
    Memory,
    MemoryError_,
    NVM_BASE,
    NVM_SIZE,
    Region,
    SRAM_BASE,
    SRAM_SIZE,
    default_memory,
    word_range,
)
from .multiplier import MemoTable, Multiplier
from .adder import MUX_POSITIONS, NUM_MUXES, SubwordAdder
from .peripherals import (
    DeviceRegion,
    SENSOR_BASE,
    SensorFIFO,
    attach_sensor,
)
from .stats import ExecutionStats
from .cpu import CPU, CpuFault
from .reference import ReferenceCPU

__all__ = [
    "CPU",
    "CpuFault",
    "ReferenceCPU",
    "DeviceRegion",
    "ExecutionStats",
    "MemoTable",
    "Memory",
    "MemoryError_",
    "MUX_POSITIONS",
    "Multiplier",
    "NUM_MUXES",
    "NVM_BASE",
    "NVM_SIZE",
    "Region",
    "SENSOR_BASE",
    "SensorFIFO",
    "SRAM_BASE",
    "SRAM_SIZE",
    "SubwordAdder",
    "attach_sensor",
    "default_memory",
    "word_range",
]
