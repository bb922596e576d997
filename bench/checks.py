"""Output checks.

* :class:`Checker` sees every answer the service sends. The first
  answer for a fingerprint is its cold answer; every later one must
  equal it field by field (the per-sample list too, whenever both carry
  one). It also totals the simulated counts of the distinct answers
  received, which depend on the plan alone, not on how many requests a
  time-boxed loop managed to send.
* :func:`same_samples` compares two sample lists ``SampleRun`` by
  ``SampleRun``: the service's batch engine against the interpreter,
  run in this process by :func:`local_runs` or by grid-cli.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

#: The fields ``SampleRun`` equality compares.
SAMPLE_FIELDS = ("wall_ms", "on_ms", "active_cycles", "outages",
                 "skim_taken", "error", "accuracy")


class Checker:
    """Identity of repeated answers plus simulated-count totals over
    distinct fingerprints."""

    def __init__(self) -> None:
        self.refs: Dict[str, list] = {}
        self.sim: Counter = Counter()

    def result(self, event: dict) -> bool:
        """Check one ``result`` event; False on a mismatch."""
        body = {k: v for k, v in event.items() if k not in ("id", "source")}
        runs = body.pop("runs", None)
        ref = self.refs.get(body.get("fingerprint"))
        if ref is None:
            self.refs[body.get("fingerprint")] = [body, runs]
            metrics = body.get("metrics") or {}
            counters = metrics.get("counters", {})
            self.sim["samples"] += counters.get("samples", 0)
            self.sim["outages"] += counters.get("outages", 0)
            self.sim["skims"] += counters.get("skims_taken", 0)
            self.sim["active_cycles"] += (
                metrics.get("histograms", {}).get("active_cycles", {}).get("sum", 0)
            )
            return True
        if ref[0] != body:
            return False
        if runs is not None:
            if ref[1] is None:
                ref[1] = runs
            elif ref[1] != runs:
                return False
        return True

    def runs(self, fingerprint: str) -> Optional[list]:
        """The per-sample list received for a fingerprint, if any."""
        ref = self.refs.get(fingerprint)
        return None if ref is None else ref[1]


def same_samples(left: Optional[List[dict]], right: Optional[List[dict]]) -> bool:
    """True when two sample lists agree ``SampleRun`` by ``SampleRun``."""
    if not left or not right:
        return False
    return [tuple(run.get(f) for f in SAMPLE_FIELDS) for run in left] == [
        tuple(run.get(f) for f in SAMPLE_FIELDS) for run in right
    ]


def local_runs(job: dict) -> List[dict]:
    """One job's samples computed in this process on the default engine."""
    from repro.experiments import common
    from repro.service.protocol import JobSpec
    from repro.workloads import make_workload

    spec = JobSpec.from_dict(job)
    workload = make_workload(spec.workload, spec.scale)
    [result] = common.run_benchmark_suite(
        workload, [(spec.mode, spec.bits)], spec.runtime, spec.setup()
    )
    return [vars(run) for run in result.runs]
