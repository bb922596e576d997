"""The interpreter side of the differential tests.

The harness runs every grid on the replay engine; the interpreter is
the golden model it is checked against. It is selected per sample, by
calling ``_run_sample`` on each spec of a configuration's grid.
"""

from repro.experiments.common import _run_sample, _sample_specs


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
