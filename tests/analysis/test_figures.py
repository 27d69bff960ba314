"""Figure/table data generation (tiny scale)."""

import pytest

from repro.analysis import figures
from repro.exp.engine import run_matrix
from repro.workloads.registry import ALL_VARIANTS, FIGURE1_WORKLOADS

# Full-matrix figure reproduction: slow on a cold cache, so it runs in
# CI's full-suite pass (`-m ""`) rather than the fast tier-1 default.
pytestmark = pytest.mark.slow

TINY = dict(ncores=2, seed=4, scale=0.05)


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(
        ALL_VARIANTS, figures.EVAL_SYSTEMS, jobs=1, **TINY
    )


class TestRunMatrix:
    def test_covers_every_pair(self, matrix):
        assert set(matrix) == {
            (name, system)
            for name in ALL_VARIANTS
            for system in figures.EVAL_SYSTEMS
        }

    def test_shares_sequential_baseline(self, matrix):
        for name in ALL_VARIANTS:
            seqs = {
                matrix[(name, system)].seq_cycles
                for system in figures.EVAL_SYSTEMS
            }
            assert len(seqs) == 1

    def test_invariants_hold_everywhere(self, matrix):
        for (name, system), result in matrix.items():
            assert result.invariants_ok, (name, system)


class TestFigureSeries:
    def test_figure3_from_matrix(self, matrix):
        series = figures.figure3(matrix=matrix)
        assert set(series) == set(ALL_VARIANTS)
        assert all(v > 0 for v in series.values())

    def test_figure4_breakdowns_normalize(self, matrix):
        for name, breakdown in figures.figure4(matrix=matrix).items():
            assert abs(sum(breakdown.values()) - 1.0) < 1e-9, name

    def test_figure9_from_matrix(self, matrix):
        table = figures.figure9(matrix=matrix)
        assert set(table) == set(ALL_VARIANTS)
        for systems in table.values():
            assert set(systems) == set(figures.EVAL_SYSTEMS)

    def test_figure10_normalizes_to_eager(self, matrix):
        data = figures.figure10(matrix=matrix)
        for name, systems in data.items():
            assert systems["eager"]["normalized_runtime"] == 1.0

    def test_table3_columns(self, matrix):
        data = figures.table3(matrix=matrix)
        row = data["genome"]
        assert "blocks_lost" in row
        assert "commit_stall_percent" in row

    def test_figure1_subset(self):
        series = figures.figure1(**TINY)
        assert set(series) == set(FIGURE1_WORKLOADS)


class TestFigure2:
    def test_counter_validated_internally(self):
        points = figures.figure2(txns_per_core=2)
        assert {p.commits for p in points.values()} == {4}

    def test_systems_covered(self):
        assert set(figures.FIGURE2_SYSTEMS) == {
            "retcon", "datm", "eager-abort", "eager-stall", "lazy"
        }


class TestStaticTables:
    def test_table1(self):
        rows = dict(figures.table1())
        assert "Processor" in rows

    def test_table2_matches_registry(self):
        names = {row[0] for row in figures.table2()}
        assert set(ALL_VARIANTS) < names
        assert "bayes" in names
