"""The golden models of the differential tests.

The harness runs every grid on the replay engine; the interpreter is
the golden model it is checked against. It is selected per sample, by
calling ``_run_sample`` on each spec of a configuration's grid. The
replay engine's WAR horizons come from a vectorized index; its golden
model is the one-shot scalar scan :func:`war_scan`.
"""

from bisect import bisect_left

from repro.experiments.common import _run_sample, _sample_specs
from repro.sim.replay import _LOAD


def interp_runs(workload, configs, runtime, setup, environment, reference=None):
    """Every sample of ``configs`` (``(mode, bits)`` pairs) in grid
    order, each run on the interpreter: the samples that
    ``run_benchmark_suite`` returns on the replay engine, concatenated."""
    return [
        _run_sample(spec)
        for mode, bits in configs
        for spec in _sample_specs(
            workload, mode, bits, runtime, setup, environment, reference
        )
    ]


def war_scan(record, start):
    """First WAR store position at/after ``start``, else ``record.length``.

    Clank's read-first/written byte tracking from empty sets at
    ``start``, one recorded access at a time, with no memo and no state
    kept between calls: the first store that hits a read-first byte is
    where Clank checkpoints. ``BatchIndex.war_from`` (and so
    ``ReplayRecord.next_war_before``) must give the same position."""
    read_first, written = set(), set()
    first = bisect_left(record.acc_pos, start)
    for pos, addr in zip(record.acc_pos[first:], record.acc_addr[first:]):
        pc = record.pcs[pos]
        span = range(addr, addr + record.pc_size[pc])
        if record.pc_kind[pc] == _LOAD:
            read_first.update(byte for byte in span if byte not in written)
        elif read_first.intersection(span):
            return pos
        else:
            written.update(span)
    return record.length
