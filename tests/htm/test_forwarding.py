"""ForwardingMixin internals: edges, cycles, cooldown hysteresis."""

from repro.coherence.directory import CoherenceFabric
from repro.htm.backends import build_system
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats

ADDR = 0x4000
BLOCK = ADDR // 64


def make_system(ncores=3, cooldown=None):
    config = small_test_config(ncores=ncores)
    memory = MainMemory()
    system = build_system(
        "retcon-fwd", config, memory, CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )
    if cooldown is not None:
        system._fwd_cooldown_length = cooldown
    return system, memory


class TestEdges:
    def test_edge_bookkeeping_is_symmetric(self):
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        system.load(1, ADDR, 8)
        assert 0 in system._preds[1]
        assert 1 in system._succs[0]
        system.commit(0)
        assert system._succs[0] == set()
        assert system._preds[1] == set()

    def test_reaches_is_transitive(self):
        system, _ = make_system()
        system._succs[0].add(1)
        system._succs[1].add(2)
        assert system._reaches(0, 2)
        assert not system._reaches(2, 0)

    def test_duplicate_edges_are_idempotent(self):
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        system.load(1, ADDR, 8)
        system.load(1, ADDR, 8)  # same conflict again
        assert system._preds[1] == {0}


class TestCooldown:
    def test_cycle_arms_the_cooldown(self):
        system, _ = make_system(cooldown=5)
        system.begin(0)
        system.begin(1)
        # 0 -> 1 edge, then 1 -> 0 would close the cycle.
        system.store(0, ADDR, 8, 1)
        system.load(1, ADDR, 8)
        system.store(1, ADDR + 64, 8, 2)
        system.load(0, ADDR + 64, 8)  # cycle: younger (1) is doomed
        assert system.poll_doomed(1) == "dependence"
        assert system._fwd_cooldown.get(BLOCK + 1, 0) > 0

    def test_cooldown_counts_down(self):
        system, _ = make_system(cooldown=2)
        system._fwd_cooldown[BLOCK] = 2
        assert not system._forwarding_allowed(BLOCK)
        assert not system._forwarding_allowed(BLOCK)
        assert system._forwarding_allowed(BLOCK)

    def test_zero_cooldown_always_forwards(self):
        system, _ = make_system(cooldown=0)
        assert system._forwarding_allowed(BLOCK)

    def test_cooled_block_uses_baseline_resolution(self):
        from repro.htm.events import StallRetry

        import pytest

        system, _ = make_system()
        system._fwd_cooldown[BLOCK] = 10
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        # Baseline timestamp policy: younger requester stalls instead
        # of taking a dependence.
        with pytest.raises(StallRetry):
            system.load(1, ADDR, 8)
        assert system._preds[1] == set()
