"""The chaos campaign acceptance bar (ISSUE 5):

* ≥ 500 seeded fault scenarios across clank/nvp/hibernus on two
  workloads report **zero** invariant violations on shipped runtimes;
* the same seed re-runs byte-identically;
* each deliberately broken mutant runtime IS flagged, with the
  invariant its bug breaks — proving the oracle has teeth.
"""

import hashlib

import pytest

from repro.fault.campaign import (
    DEFAULT_RUNTIMES,
    DEFAULT_WORKLOADS,
    generate_scenarios,
    report_to_json,
    run_campaign,
)
from repro.fault.mutants import MUTANTS

SEED = 20260806
COUNT = 500

#: sha256 of ``report_to_json`` for the ``SEED``/``COUNT`` campaign,
#: computed at commit 41bde742707c (Python 3.11.7). The campaign drives
#: the live side of the one intermittent loop that the replay lanes
#: share, so this pins the loop independently of the replay-vs-
#: interpreter differentials. Recompute it only for a change that means
#: to alter results, and record it in CHANGES.md.
REPORT_DIGEST = "b5246baebbbf9764df8126577912cd3d7088ec4a0e32435f146c37209ebbefe0"


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(seed=SEED, count=COUNT)


class TestShippedRuntimesAreClean:
    def test_five_hundred_scenarios_zero_violations(self, campaign):
        assert campaign["scenario_count"] == COUNT
        assert campaign["violation_count"] == 0, campaign["violations"][:3]

    def test_every_runtime_and_workload_covered(self, campaign):
        rows = campaign["scenarios"]
        assert {row["runtime"] for row in rows} == set(DEFAULT_RUNTIMES)
        assert {row["workload"] for row in rows} == set(DEFAULT_WORKLOADS)
        assert {row["mode"] for row in rows} == {"precise", "anytime"}

    def test_faults_actually_fired(self, campaign):
        # A campaign that injects nothing proves nothing: the bulk of
        # scenarios must have landed forced outages, and the event mix
        # must include torn commits and bit flips.
        rows = campaign["scenarios"]
        forced = sum(row["injected"]["forced_outages"] for row in rows)
        assert forced > COUNT  # multiple forced outages per scenario on average
        assert sum(row["injected"]["torn_commits"] for row in rows) > 0
        assert sum(row["injected"]["bit_flips"] for row in rows) > 0

    def test_anytime_scenarios_take_skims(self, campaign):
        assert campaign["outcomes"].get("completed-skim", 0) > 0


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, campaign):
        again = run_campaign(seed=SEED, count=COUNT)
        assert report_to_json(again) == report_to_json(campaign)

    def test_report_matches_the_digest(self, campaign):
        report = report_to_json(campaign).encode()
        assert hashlib.sha256(report).hexdigest() == REPORT_DIGEST

    def test_scenario_generation_is_pure(self):
        a = generate_scenarios(SEED, 40)
        b = generate_scenarios(SEED, 40)
        assert [s.describe() for s in a] == [s.describe() for s in b]

    def test_different_seed_differs(self):
        a = generate_scenarios(SEED, 40)
        b = generate_scenarios(SEED + 1, 40)
        assert [s.describe() for s in a] != [s.describe() for s in b]


class TestMutantSensitivity:
    """Each shipped mutant must be flagged, with the right invariant."""

    EXPECTED_INVARIANT = {
        "skip-war-scan": "output-golden",
        "non-atomic-commit": "atomic-commit",
    }

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_is_flagged(self, mutant):
        report = run_campaign(seed=SEED, count=150, mutant=mutant)
        assert report["violation_count"] > 0, (
            f"mutant {mutant} ran clean: the oracle lost its sensitivity"
        )
        invariants = {v["invariant"] for v in report["violations"]}
        assert self.EXPECTED_INVARIANT[mutant] in invariants

    def test_registry_matches_expectations(self):
        assert set(MUTANTS) == set(self.EXPECTED_INVARIANT)
