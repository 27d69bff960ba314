"""Fault injection: the oracle's self-test.

Acceptance gate for the subsystem: the catalog holds >= 10 distinct
fault points, a clean control run reports zero violations, and every
injected fault is caught as at least one OracleViolation.
"""

import pytest

from repro.check.faults import FAULT_POINTS, FaultInjector
from repro.check.matrix import FAULT_ROWS, run_fault_matrix, run_fault_trial


class TestCatalog:
    def test_at_least_ten_distinct_faults(self):
        assert len(FAULT_POINTS) >= 10

    def test_all_stages_are_covered(self):
        stages = {point.stage for point in FAULT_POINTS.values()}
        assert stages == {"pre-validate", "post-plan"}

    def test_every_point_is_documented(self):
        for point in FAULT_POINTS.values():
            assert point.description

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector("no-such-fault")

    def test_max_fires_bounds_injection(self):
        trial = run_fault_trial("plan-store-skew")
        assert trial.fires > 1  # default: fires on every commit
        injector = FaultInjector("plan-store-skew", max_fires=0)
        injector.fire("post-plan", None, None)
        assert injector.fires == 0


class TestControl:
    def test_control_run_is_clean(self):
        trial = run_fault_trial(None)
        assert trial.fault is None
        assert trial.fires == 0
        assert trial.checked_commits > 0
        assert trial.violations == 0
        assert trial.caught  # "caught" for the control means clean

    def test_forwarding_control_run_is_clean(self):
        trial = run_fault_trial(None, "retcon-fwd")
        assert trial.violations == 0
        assert trial.checked_commits == 4 * 32  # every commit replayed


@pytest.mark.parametrize("fault", sorted(FAULT_POINTS))
def test_injected_fault_is_caught(fault):
    trial = run_fault_trial(fault)
    assert trial.fires > 0, f"{fault} never found a victim"
    assert trial.violations > 0, f"{fault} escaped the oracle"
    assert trial.caught
    assert trial.kinds  # violation kinds were classified


@pytest.mark.parametrize("fault", sorted(FAULT_POINTS))
def test_a_forwarding_row_catches_every_fault(fault):
    """Forwarded commits are replayed like any other, so every
    catalogued fault is caught on retcon-fwd too."""
    trial = run_fault_trial(fault, "retcon-fwd")
    assert trial.fires > 0 and trial.violations > 0 and trial.caught


WRITE_BUFFER_TRIALS = [
    (system, fault)
    for system, faults in FAULT_ROWS.items()
    if faults is not None
    for fault in faults
]


@pytest.mark.parametrize("system,fault", WRITE_BUFFER_TRIALS)
def test_a_write_buffer_plan_fault_is_caught(system, fault):
    """A lazy or STM commit hands the oracle its write buffer's runs
    through the same routine as RETCON, so the same plan corruption is
    caught at the faulting commit."""
    control = run_fault_trial(None, system)
    assert control.violations == 0
    assert control.checked_commits == 4 * 32  # every commit replayed
    trial = run_fault_trial(fault, system)
    assert trial.system == system and trial.caught
    assert set(trial.kinds) == {"store-drain"}


def test_the_matrix_runs_a_control_and_every_carried_fault_per_row():
    trials = run_fault_matrix(faults=["plan-store-skew", "ssb-drop"])
    assert [(t.system, t.fault) for t in trials] == [
        ("retcon", None), ("retcon", "plan-store-skew"),
        ("retcon", "ssb-drop"),
        ("retcon-fwd", None), ("retcon-fwd", "plan-store-skew"),
        ("retcon-fwd", "ssb-drop"),
        ("lazy", None), ("lazy", "plan-store-skew"),
        ("stm", None), ("stm", "plan-store-skew"),
    ]
    assert all(t.caught for t in trials)
