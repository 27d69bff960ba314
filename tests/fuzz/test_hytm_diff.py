"""Differential fuzzing over the hybrid/software TM backends.

Satellite coverage for the HyTM family: the 4-signal ``run_case``
cross-check (golden bytes, invariants, the oracle with its
final-memory check, stats) must hold on ``stm``, ``hybrid-retcon``, and
``progressive`` for a fixed seed batch, and a fault seeded into the
STM commit path must be caught.
"""

import pytest

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case

pytestmark = pytest.mark.slow

HYTM_BACKENDS = ("stm", "hybrid-retcon", "progressive")


class TestCleanCases:
    @pytest.mark.parametrize("profile", sorted(FUZZ_PROFILES))
    def test_fixed_seed_batch_is_clean(self, profile):
        cfg = FUZZ_PROFILES[profile]
        for seed in range(4):
            case = generate_case(seed, cfg, origin=profile)
            outcome = run_case(case, backends=HYTM_BACKENDS)
            assert outcome.ok, outcome.summary()
            assert {r.backend for r in outcome.runs} == set(
                HYTM_BACKENDS
            )

    def test_tight_budget_exercises_the_fallback(self):
        # retry_budget=1 forces real escalations under fuzz contention;
        # all four signals must still agree.
        from dataclasses import replace

        from repro.sim.config import MachineConfig

        config = replace(MachineConfig(), retry_budget=1)
        case = generate_case(11, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(
            case,
            backends=("hybrid-retcon", "progressive"),
            config=config,
        )
        assert outcome.ok, outcome.summary()

    def test_commit_order_replay_covers_the_family(self, monkeypatch):
        # Scheduler-atomic STM commits make the oracle's commit-order
        # serial state sound for every backend of the family: each
        # backend runs once, and its oracle ends with a final-memory
        # check.
        from repro.check.oracle import RepairOracle
        from repro.fuzz import diff

        built, finished = [], []

        class Recording(diff.Machine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.label.split()[:2])

        def finish(self, memory):
            finished.append(self.checked_commits)
            real_finish(self, memory)

        real_finish = RepairOracle.finish
        monkeypatch.setattr(diff, "Machine", Recording)
        monkeypatch.setattr(RepairOracle, "finish", finish)
        family = HYTM_BACKENDS + ("hybrid-eager", "hybrid-lazy-vb")
        case = generate_case(0, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(case, backends=family)
        assert outcome.ok, outcome.summary()
        assert built == [["fuzz", backend] for backend in family]
        assert finished == [case.txn_count()] * len(family)


class TestFaultDetection:
    def test_stm_commit_fault_is_caught(self):
        """A skewed STM write-back run must trip the checks on the
        software backend."""
        case = generate_case(3, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(
            case, backends=HYTM_BACKENDS, fault="plan-store-skew"
        )
        assert not outcome.ok
        assert "stm" in {d.backend for d in outcome.divergences}
        kinds = {d.kind for d in outcome.divergences}
        # corroborated by at least two independent signals
        assert len(kinds & {"oracle", "golden", "invariant",
                            "stats"}) >= 2

    def test_dropped_stm_writeback_is_caught(self):
        case = generate_case(3, FUZZ_PROFILES["fuzz-rmw"])
        outcome = run_case(
            case, backends=("stm",), fault="plan-store-drop"
        )
        assert not outcome.ok
