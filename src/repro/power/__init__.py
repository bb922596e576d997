"""Energy-harvesting power substrate: traces, capacitor, supply FSM."""

from .trace import PowerTrace, bundled_traces, concat, constant_trace, square_trace
from .harvester import DEFAULT_MEAN_POWER_W, paper_trace, paper_traces, wifi_trace
from .capacitor import Capacitor
from .energy import CLOCK_HZ, CYCLES_PER_MS, EnergyModel
from .supply import PowerSupply, SupplyExhausted

__all__ = [
    "CLOCK_HZ",
    "CYCLES_PER_MS",
    "Capacitor",
    "DEFAULT_MEAN_POWER_W",
    "EnergyModel",
    "PowerSupply",
    "PowerTrace",
    "SupplyExhausted",
    "bundled_traces",
    "concat",
    "constant_trace",
    "paper_trace",
    "paper_traces",
    "square_trace",
    "wifi_trace",
]
