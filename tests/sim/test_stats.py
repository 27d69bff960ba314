"""Statistics aggregation (time breakdown, Table 3 columns)."""

from repro.core.engine import TxnRetconSample
from repro.sim.stats import MachineStats


class TestBreakdown:
    def test_fractions_normalize(self):
        stats = MachineStats(2)
        stats.core(0).busy = 60
        stats.core(0).conflict = 20
        stats.core(1).busy = 10
        stats.core(1).barrier = 10
        breakdown = stats.breakdown()
        assert abs(sum(breakdown.values()) - 1.0) < 1e-12
        assert breakdown["busy"] == 0.7
        assert breakdown["conflict"] == 0.2
        assert breakdown["barrier"] == 0.1

    def test_empty_stats(self):
        assert MachineStats(1).breakdown() == {
            "busy": 0.0, "conflict": 0.0, "barrier": 0.0, "other": 0.0
        }


class TestTable3Aggregation:
    def sample(self, **kwargs):
        return TxnRetconSample(**kwargs)

    def test_avg_and_max(self):
        stats = MachineStats(1)
        stats.record_retcon_sample(
            0, self.sample(blocks_lost=1, commit_cycles=10)
        )
        stats.record_txn(0, duration=100, commit_cycles=10)
        stats.record_retcon_sample(
            0, self.sample(blocks_lost=3, commit_cycles=30)
        )
        stats.record_txn(0, duration=100, commit_cycles=30)
        row = stats.table3_row()
        assert row["blocks_lost"] == (2.0, 3)
        assert row["commit_cycles"] == (20.0, 30)

    def test_commit_stall_percent(self):
        stats = MachineStats(1)
        stats.record_txn(0, duration=200, commit_cycles=10)
        stats.record_txn(0, duration=200, commit_cycles=30)
        assert stats.commit_stall_percent() == 10.0

    def test_txn_without_retcon_sample(self):
        stats = MachineStats(1)
        stats.record_txn(0, duration=50, commit_cycles=0)
        assert stats.table3_row()["blocks_lost"] == (0.0, 0.0)

    def test_samples_do_not_leak_across_cores(self):
        stats = MachineStats(2)
        stats.record_retcon_sample(0, self.sample(blocks_lost=5))
        stats.record_txn(1, duration=10, commit_cycles=0)  # core 1
        assert stats.table3_row()["blocks_lost"] == (0.0, 0.0)
        stats.record_txn(0, duration=10, commit_cycles=0)
        assert stats.table3_row()["blocks_lost"] == (5.0, 5)


class TestAbortAccounting:
    def test_aborts_by_reason_merges_cores(self):
        stats = MachineStats(2)
        stats.core(0).aborts["conflict"] = 2
        stats.core(1).aborts["conflict"] = 1
        stats.core(1).aborts["constraint"] = 4
        assert stats.aborts_by_reason() == {
            "conflict": 3, "constraint": 4
        }
        assert stats.total_aborts() == 7

    def test_abort_rate(self):
        stats = MachineStats(1)
        stats.core(0).commits = 3
        stats.core(0).aborts["conflict"] = 1
        assert stats.abort_rate_percent() == 25.0


class TestAllAbortRuns:
    """Zero committed transactions must not divide by zero anywhere:
    an all-abort run is a valid outcome of an adversarial schedule."""

    def test_percentages_on_empty_stats(self):
        stats = MachineStats(2)
        assert stats.commit_stall_percent() == 0.0
        assert stats.abort_rate_percent() == 0.0

    def test_aborts_without_commits(self):
        stats = MachineStats(1)
        stats.core(0).aborts["conflict"] = 5
        # a retcon sample was recorded at pre-commit, but the commit
        # itself never landed (record_txn never called)
        stats.record_retcon_sample(0, TxnRetconSample(blocks_lost=2))
        assert stats.abort_rate_percent() == 100.0
        assert stats.commit_stall_percent() == 0.0
        for avg, peak in stats.table3_row().values():
            assert avg == 0.0 and peak == 0.0
