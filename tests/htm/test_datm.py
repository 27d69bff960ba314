"""DATM: forwarding, commit ordering, cyclic-dependence aborts."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.backends import build_system
from repro.htm.events import StallRetry
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats

ADDR = 0x4000


def make_datm(ncores=3):
    config = small_test_config(ncores=ncores)
    memory = MainMemory()
    system = build_system(
        "datm", config, memory, CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )
    return system, memory


class TestForwarding:
    def test_speculative_value_is_forwarded(self):
        system, _ = make_datm()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 42)
        # Reader sees the uncommitted value instead of conflicting.
        assert system.load(1, ADDR, 8).value == 42
        assert 0 in system._preds[1]

    def test_dependent_commit_waits_for_source(self):
        system, _ = make_datm()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 42)
        system.load(1, ADDR, 8)
        with pytest.raises(StallRetry):
            system.commit(1)
        system.commit(0)
        system.commit(1)  # now allowed

    def test_single_increments_commit_without_abort(self):
        """An acyclic counter handoff succeeds (DATM's strength)."""
        system, memory = make_datm()
        system.begin(0)
        system.begin(1)
        v0 = system.load(0, ADDR, 8).value
        system.store(0, ADDR, 8, v0 + 1)
        v1 = system.load(1, ADDR, 8).value  # forwarded: 1
        system.store(1, ADDR, 8, v1 + 1)
        system.commit(0)
        system.commit(1)
        assert memory.read(ADDR) == 2
        assert system.stats.total_aborts() == 0


class TestCycles:
    def test_second_increment_creates_cycle_and_aborts(self):
        """Figure 2b: repeated interleaved increments abort."""
        system, _ = make_datm()
        system.begin(0)
        system.begin(1)
        # P0 inc, P1 inc (P1 depends on P0), P0 inc again -> P0 would
        # depend on P1: cycle; the younger (P1) aborts.
        v = system.load(0, ADDR, 8).value
        system.store(0, ADDR, 8, v + 1)
        v = system.load(1, ADDR, 8).value
        system.store(1, ADDR, 8, v + 1)
        v = system.load(0, ADDR, 8).value
        assert system.poll_doomed(1) == "dependence"

    def test_abort_cascades_to_dependents(self):
        system, memory = make_datm()
        memory.write(ADDR, 5)
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 10)
        system.load(1, ADDR, 8)  # consumed forwarded data
        system._doom(0, reason="conflict")
        assert system.poll_doomed(1) == "dependence"
        assert memory.read(ADDR) == 5  # both rolled back, in order

    def test_edges_cleared_on_commit(self):
        system, _ = make_datm()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        system.load(1, ADDR, 8)
        system.commit(0)
        assert system._preds[1] == set()
        system.commit(1)
