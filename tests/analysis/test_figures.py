"""Figure/table data generation (tiny scale)."""

import pytest

from repro.analysis import figures
from repro.analysis.figures import FIGURES
from repro.exp.spec import Point
from repro.workloads.registry import (
    ALL_VARIANTS,
    FIGURE1_WORKLOADS,
    TABLE3_WORKLOADS,
)

# Full-matrix figure reproduction: slow on a cold cache, so it runs in
# CI's full-suite pass (`-m ""`) rather than the fast tier-1 default.
pytestmark = pytest.mark.slow

TINY = Point("", "", ncores=2, seed=4, scale=0.05)
GRID_RECORDS = ("1", "3", "4", "9", "10", "table3")


@pytest.fixture(scope="module")
def finished():
    """One shared pass over the grid records' points."""
    return figures.run_points(
        (
            point
            for name in GRID_RECORDS
            for _label, point in FIGURES[name].points(TINY)
        ),
        jobs=1,
    )


@pytest.fixture(scope="module")
def data(finished):
    return {
        name: FIGURES[name].nest(FIGURES[name].points(TINY), finished, TINY)
        for name in GRID_RECORDS
    }


class TestSharedPass:
    def test_covers_every_pair(self, finished):
        assert {(p.workload, p.system) for p in finished} == {
            (name, system)
            for name in ALL_VARIANTS
            for system in figures.EVAL_SYSTEMS
        } | {("bayes", "retcon")}

    def test_shares_sequential_baseline(self, finished):
        for name in ALL_VARIANTS:
            seqs = {
                result.seq_cycles
                for point, result in finished.items()
                if point.workload == name
            }
            assert len(seqs) == 1

    def test_invariants_hold_everywhere(self, finished):
        for point, result in finished.items():
            assert result.invariants_ok, point.label()

    def test_collect_is_points_pass_nest(self, data):
        records = {name: FIGURES[name] for name in ("3", "9")}
        assert figures.collect(records, TINY) == {
            name: data[name] for name in records
        }


class TestFigureSeries:
    def test_figure1_subset(self, data):
        assert set(data["1"]) == set(FIGURE1_WORKLOADS)

    def test_figure3_series(self, data):
        assert set(data["3"]) == set(ALL_VARIANTS)
        assert all(v > 0 for v in data["3"].values())

    def test_figure4_breakdowns_normalize(self, data):
        for name, breakdown in data["4"].items():
            assert abs(sum(breakdown.values()) - 1.0) < 1e-9, name

    def test_figure9_matrix(self, data):
        assert set(data["9"]) == set(ALL_VARIANTS)
        for systems in data["9"].values():
            assert set(systems) == set(figures.EVAL_SYSTEMS)

    def test_figure10_normalizes_to_eager(self, data):
        for name, systems in data["10"].items():
            assert systems["eager"]["normalized_runtime"] == 1.0

    def test_table3_columns(self, data):
        assert list(data["table3"]) == list(TABLE3_WORKLOADS)
        row = data["table3"]["genome"]
        assert "blocks_lost" in row
        assert "commit_stall_percent" in row

    def test_ablation_builders_cap_the_base_point(self):
        big = Point("", "", ncores=32, seed=1, scale=1.0)
        for name, (ncores, scale) in {
            "contention": (32, 0.4), "forwarding": (16, 0.4),
            "limits": (32, 1.0), "scaling": (32, 0.5),
        }.items():
            points = [p for _label, p in FIGURES[name].points(big)]
            assert max(p.ncores for p in points) == ncores, name
            assert {p.scale for p in points} == {scale}, name


    def test_structures_leaves_a_sized_structure_alone(self):
        """`--ivb 4` reaches every point: the IVB sweep collapses to
        that one size while the SSB is still swept on top of it."""
        from repro.sim.config import MachineConfig

        sized = Point("", "", 2, 4, 0.05, MachineConfig(ivb_entries=4))
        labelled = FIGURES["structures"].points(sized)
        assert [label for label, _p in labelled] == [
            ("ivb", "4"), ("ssb", "4"), ("ssb", "8"), ("ssb", "32"),
        ]
        configs = [p.resolved_config() for _label, p in labelled]
        assert {c.ivb_entries for c in configs} == {4}
        assert [c.ssb_entries for c in configs] == [32, 4, 8, 32]


class TestFigure2:
    def test_counter_validated_internally(self):
        record = FIGURES["2"]
        labelled = record.points(TINY)
        finished = figures.run_points(
            (point for _label, point in labelled), jobs=1
        )
        record.nest(labelled, finished, TINY)  # a wrong count fails here
        assert {
            finished[point].commits
            for (part, _system), point in labelled if part == "timeline"
        } == {4}

    def test_systems_covered(self):
        assert set(figures.FIGURE2_SYSTEMS) == {
            "retcon", "datm", "eager-abort", "eager-stall", "lazy"
        }


class TestStaticTables:
    def test_table1(self):
        (data,) = figures.collect({"t": FIGURES["table1"]}, TINY).values()
        assert "Processor" in data

    def test_table2_matches_registry(self):
        (data,) = figures.collect({"t": FIGURES["table2"]}, TINY).values()
        assert set(data) == {"bayes", *ALL_VARIANTS}
