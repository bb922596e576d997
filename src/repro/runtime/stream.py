"""Continuous-input sample-stream scheduling.

Energy-harvesting sensors receive a stream of input samples at a fixed
rate. The device processes one sample at a time; when it finishes
(precisely, or early via a skim point) it moves on to the *freshest*
arrived sample — a sensor register holds only the latest reading, so
older unprocessed samples are lost. This module reproduces the paper's
motivating comparison (Figures 1, 3 and 17): a precise implementation
that cannot keep up *drops* samples, while WN produces an approximate
result for more of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..power.supply import PowerSupply
from ..sim.cpu import CPU
from .base import IntermittentRuntime
from .executor import IntermittentExecutor


@dataclass
class ProcessedSample:
    """One input sample the device managed to process."""

    index: int
    arrival_ms: int
    start_ms: int
    finish_ms: int
    skim_taken: bool
    output: Any

    @property
    def latency_ms(self) -> int:
        """Milliseconds from sample arrival to its finished output."""
        return self.finish_ms - self.arrival_ms


@dataclass
class StreamResult:
    """Outcome of a stream run."""

    processed: List[ProcessedSample]
    missed_indices: List[int]
    total_samples: int

    @property
    def processed_indices(self) -> List[int]:
        """Arrival indices of the samples that produced an output."""
        return [p.index for p in self.processed]

    @property
    def coverage(self) -> float:
        """Fraction of arrived samples that produced an output."""
        return len(self.processed) / self.total_samples if self.total_samples else 0.0


def _idle_until(supply: PowerSupply, target_tick: int) -> None:
    """Advance time while the device waits for input (harvest continues)."""
    while supply.tick < target_tick:
        supply.capacitor.harvest(supply.trace.energy_at(supply.tick))
        supply.tick += 1
    supply.on = False  # re-evaluate the ON threshold when work arrives


def process_stream(
    arrivals_ms: Sequence[int],
    supply: PowerSupply,
    make_cpu: Callable[[int], CPU],
    make_runtime: Callable[[], IntermittentRuntime],
    extract: Callable[[CPU], Any],
    max_wall_ms_per_sample: int = 1_000_000,
) -> StreamResult:
    """Run a stream of samples through the device.

    ``arrivals_ms`` are the sample arrival times (ascending).
    ``make_cpu(i)`` builds a fresh CPU whose memory holds sample ``i``'s
    input; ``extract(cpu)`` reads the output once the sample's run ends.
    The device always takes the *freshest* arrived sample; staler
    unstarted samples are missed.
    """
    arrivals = list(arrivals_ms)
    if arrivals != sorted(arrivals):
        raise ValueError("arrival times must be ascending")

    processed: List[ProcessedSample] = []
    done: set = set()
    next_unseen = 0  # first sample index not yet considered

    while next_unseen < len(arrivals) or _pending(arrivals, supply.tick, done, next_unseen):
        pending = _pending(arrivals, supply.tick, done, next_unseen)
        if not pending:
            _idle_until(supply, arrivals[next_unseen])
            continue

        index = pending[-1]  # freshest arrived sample
        for stale in pending[:-1]:
            done.add(stale)  # overwritten before processing: missed
        done.add(index)
        next_unseen = max(next_unseen, index + 1)

        # Released when its sample ends (CPU.release).
        with make_cpu(index) as cpu:
            runtime = make_runtime()
            executor = IntermittentExecutor(cpu, supply, runtime)
            start_ms = supply.tick
            result = executor.run(max_wall_ms=max_wall_ms_per_sample)
            if not result.completed:
                break  # supply can no longer finish a sample; stop the run
            processed.append(
                ProcessedSample(
                    index=index,
                    arrival_ms=arrivals[index],
                    start_ms=start_ms,
                    finish_ms=supply.tick,
                    skim_taken=result.skim_taken,
                    output=extract(cpu),
                )
            )

    processed_set = {p.index for p in processed}
    missed = [i for i in range(len(arrivals)) if i not in processed_set]
    return StreamResult(
        processed=processed,
        missed_indices=missed,
        total_samples=len(arrivals),
    )


def _pending(arrivals, now, done, next_unseen) -> List[int]:
    """Indices of samples that have arrived but are neither processed
    nor already overwritten."""
    pending = []
    for i in range(next_unseen, len(arrivals)):
        if arrivals[i] <= now and i not in done:
            pending.append(i)
        if arrivals[i] > now:
            break
    return pending
