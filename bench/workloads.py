"""Seeded job plans for the four benchmark workloads.

Every function here is a pure function of its arguments: the same seed
gives the same plan, byte for byte. The seed reorders
jobs and re-draws their power-trace seeds; it never changes which
configurations a workload covers, so runs with different seeds measure
the same population of work. Plans draw only valid configurations: an
SWV kernel never gets bits 1-3 (``JobSpec.validate`` would accept them
and the job would then fail inside ``compute``).

A job is a plain dict of :class:`repro.service.protocol.JobSpec`
fields, so it crosses the wire unchanged.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("cold-configs", "warm-hits", "mixed-open", "grid-cli")

RUNTIMES = ("clank", "nvp", "hibernus", "progress")

#: Every kernel the service accepts, in ``repro.workloads.ALL_BENCHMARKS``
#: order, with its anytime technique (checked against the workload
#: registry by the tests).
KERNELS = (
    ("Conv2d", "swp"), ("MatMul", "swp"), ("MatAdd", "swv"), ("Home", "swv"),
    ("Var", "swp"), ("NetMotion", "swv"), ("FC", "swp"), ("Pool", "swp"),
    ("MLP", "swp"), ("CNN", "swp"),
)
TECHNIQUE = dict(KERNELS)
VALID_BITS = {"swp": (1, 2, 3, 4, 8), "swv": (4, 8)}

#: The light default-scale builds warm-hits prefills (each computes in
#: well under 0.1 s on a 2-vCPU host).
WARM_KERNELS = ("Var", "NetMotion", "Pool", "Home", "MatAdd", "FC")
WARM_RUNTIMES = ("clank", "nvp")

#: mixed-open's prefilled configurations: {MatMul, MLP, Home} x
#: {precise, 8-bit, 4-bit} x {clank, progress}.
MIXED_KERNELS = ("MatMul", "MLP", "Home")
MIXED_RUNTIMES = ("clank", "progress")
MIXED_RATE = 25.0
MIXED_MISS_SHARE = 0.15
MIXED_DUP_DELAY_S = 0.020

#: grid-cli's figure grid: {MatMul, MLP, Home, Conv2d} x every runtime x
#: {precise, 8-bit, 4-bit}, on the CLI's default grid shape
#: (``run --traces 3 --invocations 1``).
GRID_KERNELS = ("MatMul", "MLP", "Home", "Conv2d")
GRID_TRACES = 3
GRID_INVOCATIONS = 1

#: Figure-grid passes of grid-cli. Fixed work, so a faster commit
#: finishes it sooner and the simulated counts repeat for a seed.
GRID_PASSES = 3
#: warm-hits asks for the full sample list in exactly one of every
#: WARM_FULL_EVERY requests of each block of WARM_BLOCK. Not half: a hit
#: with the list takes twice as long as one without, and with half of
#: each the median fell on the sparse gap between the two clusters.
WARM_BLOCK = 100
WARM_FULL_EVERY = 4

#: Kernels whose builds are cheap enough to re-run in-process on the
#: interpreter for the output cross-check.
CHECK_KERNELS = ("Var", "NetMotion", "Home", "MatAdd", "Pool", "FC", "MatMul")
CHECK_COUNT = 3

TRACE_SEED_RANGE = (1, 2**31 - 1)


def triples(kernels: Sequence[str] = tuple(TECHNIQUE)) -> List[Tuple[str, str, Optional[int]]]:
    """Every valid ``(workload, mode, bits)`` for ``kernels``: precise plus
    each bit width the kernel's technique supports."""
    out = []
    for name in kernels:
        technique = TECHNIQUE[name]
        out.append((name, "precise", None))
        out.extend((name, technique, bits) for bits in VALID_BITS[technique])
    return out


def job(workload: str, mode: str, bits: Optional[int], runtime: str,
        scale: str, trace_seed: int, **shape) -> Dict:
    """One JobSpec-shaped dict (grid shape defaults to the service's)."""
    spec = {
        "workload": workload, "mode": mode, "bits": bits,
        "runtime": runtime, "scale": scale, "trace_seed": trace_seed,
    }
    spec.update(shape)
    return spec


def _trace_seed(rng: random.Random) -> int:
    return rng.randint(*TRACE_SEED_RANGE)


def cold_plan(seed: int) -> List[Dict]:
    """cold-configs: the jobs of its one fresh-server pass.

    Every valid ``(workload, mode, bits)`` at tiny scale plus every
    workload's precise build at default scale (61 jobs). Runtimes
    rotate over the four in a fixed pattern; the seed shuffles the order
    and draws a fresh trace seed per job."""
    rng = random.Random(f"cold-configs/{seed}")
    population = [(t, "tiny") for t in triples()] + [
        (t, "default") for t in triples() if t[1] == "precise"
    ]
    jobs = [
        job(*triple, RUNTIMES[i % len(RUNTIMES)], scale, _trace_seed(rng))
        for i, (triple, scale) in enumerate(population)
    ]
    rng.shuffle(jobs)
    return jobs


def warm_prefill(seed: int) -> List[Dict]:
    """warm-hits' untimed prefill: 24 light default-scale configs."""
    rng = random.Random(f"warm-hits/prefill/{seed}")
    configs = [
        job(name, mode, bits, runtime, "default", _trace_seed(rng))
        for name, mode, bits in triples(WARM_KERNELS) if bits in (None, 8)
        for runtime in WARM_RUNTIMES
    ]
    rng.shuffle(configs)
    return configs


def warm_requests(seed: int, prefill: List[Dict]) -> Iterator[Tuple[Dict, bool]]:
    """warm-hits' timed resubmits: an endless stream of ``(job, full)``
    pairs, each a store hit, a quarter of them asking for the full
    sample list. The loop takes them for ``--seconds``."""
    rng = random.Random(f"warm-hits/requests/{seed}")
    while True:
        fulls = [index % WARM_FULL_EVERY == 0 for index in range(WARM_BLOCK)]
        rng.shuffle(fulls)
        for full in fulls:
            yield rng.choice(prefill), full


def mixed_prefill(seed: int) -> List[Dict]:
    """mixed-open's 18 prefilled configs (the hits' targets), on the
    CLI's grid shape so that misses keep the server about a fifth busy."""
    rng = random.Random(f"mixed-open/prefill/{seed}")
    configs = [
        job(name, mode, bits, runtime, "default", _trace_seed(rng),
            trace_count=GRID_TRACES, invocations=GRID_INVOCATIONS)
        for name, mode, bits in triples(MIXED_KERNELS) if bits in (None, 8, 4)
        for runtime in MIXED_RUNTIMES
    ]
    rng.shuffle(configs)
    return configs


def _spread_over(rng: random.Random, configs: Sequence[Dict], count: int) -> List[Dict]:
    """``count`` targets covering ``configs`` as evenly as possible, in
    seeded order, so every seed puts the same mix of work on the server."""
    targets = [configs[index % len(configs)] for index in range(count)]
    rng.shuffle(targets)
    return targets


def mixed_schedule(seed: int, prefill: List[Dict], seconds: float) -> List[Tuple[float, str, Dict]]:
    """mixed-open's open-loop arrivals as sorted ``(due_s, kind, job)``.

    ``round(rate * seconds)`` arrivals at a constant rate. Exactly 15%
    are misses, in evenly spaced slots: a prefilled config with a fresh
    trace seed, so the commit log is reused and lanes plus the preview
    do the work. A third of the misses get a duplicate 20 ms later,
    which exercises in-flight dedup. The rest are hits. The seed draws
    the targets, the misses' trace seeds and which misses are
    duplicated; the arrival times are fixed. With Poisson arrivals, how
    many hits happened to land on a miss's compute varied with the seed
    and set the mean latency."""
    rng = random.Random(f"mixed-open/schedule/{seed}")
    count = max(1, round(MIXED_RATE * seconds))
    misses = round(count * MIXED_MISS_SHARE)
    duplicated = set(rng.sample(range(misses), round(misses / 3)))
    hit_targets = _spread_over(rng, prefill, count - misses)
    miss_targets = _spread_over(rng, prefill, misses)
    miss_slots = [int((index + 0.5) * count / misses) for index in range(misses)]
    hit_slots = sorted(set(range(count)) - set(miss_slots))

    def due(slot: int) -> float:
        return (slot + 0.5) * seconds / count

    schedule = [(due(slot), "hit", target) for slot, target in zip(hit_slots, hit_targets)]
    for index, (slot, target) in enumerate(zip(miss_slots, miss_targets)):
        miss = {**target, "trace_seed": _trace_seed(rng)}
        schedule.append((due(slot), "miss", miss))
        if index in duplicated:
            schedule.append((due(slot) + MIXED_DUP_DELAY_S, "dup", miss))
    schedule.sort(key=lambda item: item[0])
    return schedule


def grid_plan(seed: int, passes: int = GRID_PASSES) -> List[Dict]:
    """grid-cli: per pass, a trace seed and the (workload, runtime) cells
    in seeded order; each cell runs precise, 8-bit and 4-bit builds."""
    rng = random.Random(f"grid-cli/{seed}")
    plan = []
    for _ in range(passes):
        cells = [(name, runtime) for name in GRID_KERNELS for runtime in RUNTIMES]
        rng.shuffle(cells)
        plan.append({"trace_seed": _trace_seed(rng), "cells": cells})
    return plan


def grid_configs(name: str) -> List[Tuple[str, Optional[int]]]:
    """The fig10 builds of one kernel: precise, 8-bit and 4-bit."""
    technique = TECHNIQUE[name]
    return [("precise", None), (technique, 8), (technique, 4)]


def check_jobs(seed: int, jobs: Sequence[Dict]) -> List[Dict]:
    """Three seeded light jobs from ``jobs`` for the output cross-check."""
    rng = random.Random(f"check/{seed}")
    light = sorted(
        {json.dumps(j, sort_keys=True) for j in jobs
         if j["workload"] in CHECK_KERNELS and j["bits"] in (None, 8)}
    )
    return [json.loads(text) for text in rng.sample(light, min(CHECK_COUNT, len(light)))]


def grid_job(name: str, mode: str, bits: Optional[int], runtime: str, trace_seed: int) -> Dict:
    """One grid-cli configuration as a service job of the same grid shape."""
    return job(name, mode, bits, runtime, "default", trace_seed,
               trace_count=GRID_TRACES, invocations=GRID_INVOCATIONS)


def grid_check_jobs(seed: int, grid_pass: Dict) -> List[Dict]:
    """Three seeded light configurations of a grid pass, as service jobs."""
    return check_jobs(seed, [
        grid_job(name, mode, bits, runtime, grid_pass["trace_seed"])
        for name, runtime in grid_pass["cells"] for mode, bits in grid_configs(name)
    ])
