"""The fuzzer's stats signal reads every ``CoreStats`` count."""

from repro.fuzz.diff import _negative_counters
from repro.sim.stats import MachineStats


def test_every_field_of_core_stats_is_checked():
    stats = MachineStats(2)
    assert _negative_counters(stats) == []
    stats.core(0).label_commits["txn"] = -1
    stats.core(1).conflict_events = -2
    stats.core(1).capacity_aborts["read_set"] = -3
    assert _negative_counters(stats) == [
        "core0.label_commits[txn]=-1",
        "core1.capacity_aborts[read_set]=-3",
        "core1.conflict_events=-2",
    ]
