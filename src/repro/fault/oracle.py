"""The crash-consistency oracle: golden references and output checks.

Two invariants are checked *online* by the injector wrappers
(atomic-commit, legal-restore-pc). This module holds the *end-of-run*
invariants, which compare the finished intermittent execution against a
golden reference computed once per (workload, mode) under continuous
power:

* **output-golden** (runs that finished precisely, through all subword
  passes): the output arrays must equal the continuous-power golden
  *bit for bit*. Clank's WAR tracking and NVP's non-volatile core
  guarantee this; a runtime that re-executes a non-idempotent region
  (the skip-WAR-scan mutant) breaks it.
* **output-bounds** (runs that took a skim point): the accepted
  approximate output must equal the continuous run's output state at
  *some* execution position at or after the consumed skim arm. This is
  exactly what WAR-idempotent checkpointing guarantees: at any instant
  the NVM state matches the continuous run at one retire position (the
  paper accepts that state "as-is", including a half-updated
  accumulator mid subword pass). An output matching *no* continuous
  position means a reboot corrupted data.

The golden bundle steps the program instruction by instruction and
snapshots the outputs at every store into an output array and at every
``SKM`` retire, so the reachable-output-state set is exact by
construction, not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConsistencyViolation

#: One reachable output state: (quality level when recorded, outputs).
OutputState = Tuple[int, Dict[str, Tuple[int, ...]]]


@dataclass
class GoldenBundle:
    """Continuous-power reference for one (workload, mode).

    ``output_states`` holds every distinct output-array state the
    continuous run passes through, tagged with the number of ``SKM``
    arms retired when the state was recorded; ``outputs`` is the state
    at halt."""

    outputs: Dict[str, Tuple[int, ...]]
    output_states: List[OutputState]
    level_count: int
    total_cycles: int


def compute_golden(kernel, inputs: Dict[str, List[int]]) -> GoldenBundle:
    """Step the kernel under continuous power, recording the output
    state after every store into an output slot and at every ``SKM``
    retire."""
    cpu = kernel.make_cpu(inputs)
    output_ranges = []
    for array in kernel.kernel.outputs():
        slot = kernel.compiled.slots[array.name]
        output_ranges.append((slot.address, slot.address + slot.size_bytes))

    armed = False
    dirty = False

    def arm_hook(target: int) -> None:
        nonlocal armed
        armed = True

    def store_hook(addr: int, size: int) -> None:
        nonlocal dirty
        for base, end in output_ranges:
            if base <= addr < end:
                dirty = True
                break

    cpu.skim_hook = arm_hook
    cpu.store_hook = store_hook
    level = 0
    cycles = 0
    states: List[OutputState] = [(0, _freeze(kernel.read_outputs(cpu)))]
    with cpu:
        while not cpu.halted:
            cycles += cpu.step()
            if armed:
                armed = False
                level += 1
                dirty = True
            if dirty:
                dirty = False
                states.append((level, _freeze(kernel.read_outputs(cpu))))
        outputs = _freeze(kernel.read_outputs(cpu))
    return GoldenBundle(
        outputs=outputs,
        output_states=states,
        level_count=level,
        total_cycles=cycles,
    )


def check_outputs(
    outputs: Dict[str, List[int]],
    golden: GoldenBundle,
    skim_taken: bool,
    consumed_levels: List[int],
) -> None:
    """Raise :class:`~repro.errors.ConsistencyViolation` unless the
    finished run's outputs are legal against the golden bundle."""
    frozen = _freeze(outputs)
    if not skim_taken:
        if frozen != golden.outputs:
            mismatches = sum(
                1
                for name in golden.outputs
                for a, b in zip(frozen[name], golden.outputs[name])
                if a != b
            )
            raise ConsistencyViolation(
                "output diverged from the continuous-power golden",
                invariant="output-golden",
                mismatches=mismatches,
            )
        return
    floor_level = min(consumed_levels) if consumed_levels else 1
    if frozen == golden.outputs:
        return  # the skim landed on (or after) the final state
    for level, state in golden.output_states:
        if level >= floor_level and state == frozen:
            return
    raise ConsistencyViolation(
        "skimmed output matches no continuous-power output state at or "
        "after the consumed arm",
        invariant="output-bounds",
        level=floor_level,
    )


def _freeze(outputs: Dict[str, List[int]]) -> Dict[str, Tuple[int, ...]]:
    """Immutable copy of an outputs dict."""
    return {name: tuple(values) for name, values in outputs.items()}
