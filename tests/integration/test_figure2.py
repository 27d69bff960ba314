"""Figure 2's qualitative comparison as a fast integration test.

The record runs its ten points through the experiment engine with the
repair oracle and golden differ attached (``repro figure 2 --check``).
"""

import pytest

from repro.analysis.figures import FIGURE2_SYSTEMS, FIGURES
from repro.exp.engine import run_points
from repro.exp.spec import Point
from repro.sim.config import MachineConfig

RECORD = FIGURES["2"]
BASE = Point("", "", check=True)


@pytest.fixture(scope="module")
def checked():
    labelled = RECORD.points(BASE)
    return labelled, run_points((p for _label, p in labelled), jobs=1)


@pytest.fixture(scope="module")
def points(checked):
    labelled, finished = checked
    return RECORD.nest(labelled, finished, BASE)


class TestFigure2:
    def test_counter_stays_exact_on_every_system(self, checked, points):
        assert set(points) == {
            "retcon", "datm", "eager-abort", "eager-stall", "lazy"
        }
        labelled, finished = checked
        for _label, point in labelled:
            result = finished[point]
            assert [inv.name for inv in result.invariants] == ["counter"]
            assert result.invariants_ok, result.invariants

    def test_retcon_commits_without_rollbacks(self, points):
        assert points["retcon"].aborts <= 1  # predictor training only

    def test_datm_aborts_on_cyclic_dependences(self, points):
        assert points["datm"].aborts > points["retcon"].aborts

    def test_eager_stall_trades_aborts_for_stalls(self, points):
        eager = points["eager-abort"]
        stall = points["eager-stall"]
        assert stall.aborts < eager.aborts
        assert stall.stall_events > 0

    def test_every_commit_reaches_the_oracle(self, checked):
        labelled, finished = checked
        for _label, point in labelled:
            result = finished[point]
            assert result.oracle_checked and result.golden is not None
            assert result.oracle_commits == result.commits > 0
            assert result.check_ok, result.oracle_violations

    def test_points_carry_the_base_points_check_and_config(self):
        base = Point(
            "", "", ncores=16, seed=7, scale=0.3, check=True,
            config=MachineConfig(retry_budget=2, read_set_entries=4),
        )
        labelled = RECORD.points(base)
        assert [label for label, _point in labelled] == [
            (part, system)
            for part in ("table", "timeline")
            for system in FIGURE2_SYSTEMS
        ]
        for (part, _system), point in labelled:
            assert point.check and point.config == base.config
            assert (point.workload, point.ncores, point.seed, point.obs) == (
                "figure2", 2, 1, "trace"
            )
            assert point.scale == (2.0 if part == "table" else 1.0)
