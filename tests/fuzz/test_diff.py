"""Differential executor: clean cases pass, faults are caught."""

import pytest

from repro.fuzz.diff import DEFAULT_BACKENDS, run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case

pytestmark = pytest.mark.slow


class TestCleanCases:
    def test_profiles_clean_on_default_backends(self):
        for profile, cfg in FUZZ_PROFILES.items():
            case = generate_case(0, cfg, origin=profile)
            outcome = run_case(case, backends=DEFAULT_BACKENDS)
            assert outcome.ok, outcome.summary()
            assert {r.backend for r in outcome.runs} == set(
                DEFAULT_BACKENDS
            )

    def test_stats_accounting_visible(self):
        case = generate_case(1, FUZZ_PROFILES["fuzz-mixed"])
        outcome = run_case(case, backends=("eager", "retcon"))
        for run in outcome.runs:
            assert run.commits == case.txn_count()
            assert run.begins == run.commits + run.aborts


class TestFaultDetection:
    def test_plan_store_skew_diverges(self):
        """A corrupted commit plan must trip the differential checks
        on the RETCON-planning backends."""
        case = generate_case(7, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(
            case, backends=DEFAULT_BACKENDS, fault="plan-store-skew"
        )
        assert not outcome.ok
        bad_backends = {d.backend for d in outcome.divergences}
        assert bad_backends & {"lazy-vb", "retcon"}
        kinds = {d.kind for d in outcome.divergences}
        # independent signals corroborate: golden bytes AND the
        # oracle's final memory, against its serial state, disagree
        assert "golden" in kinds or "invariant" in kinds
        assert any(
            d.kind == "oracle" and "final-memory" in d.detail
            for d in outcome.divergences
        )

    def test_fault_free_backends_stay_clean(self):
        """The fault only fires in the retcon pre-commit path; eager
        must not be blamed."""
        case = generate_case(7, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(
            case, backends=DEFAULT_BACKENDS, fault="plan-store-skew"
        )
        assert "eager" not in {d.backend for d in outcome.divergences}


class TestReplayScope:
    def test_forwarding_backends_get_every_check(self):
        """The forwarding backends get the oracle, final-memory check
        included, like every other backend."""
        case = generate_case(2, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(case, backends=("eager", "datm", "retcon-fwd"))
        assert outcome.ok, outcome.summary()
