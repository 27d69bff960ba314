"""Baseline TM system: conflict detection, resolution, versioning."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.events import StallRetry, TxnAborted
from repro.htm.backends import build_system
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats

ADDR = 0x4000


def make_system(name="eager", ncores=3):
    config = small_test_config(ncores=ncores)
    memory = MainMemory()
    fabric = CoherenceFabric(config, ncores)
    stats = MachineStats(ncores)
    system = build_system(name, config, memory, fabric, stats)
    return system, memory


class TestLifecycle:
    def test_begin_commit(self):
        system, memory = make_system()
        system.begin(0)
        assert system.in_txn(0)
        system.store(0, ADDR, 8, 42)
        system.commit(0)
        assert not system.in_txn(0)
        assert memory.read(ADDR) == 42
        assert system.stats.core(0).commits == 1

    def test_nested_begin_rejected(self):
        system, _ = make_system()
        system.begin(0)
        with pytest.raises(RuntimeError, match="nested"):
            system.begin(0)

    def test_commit_outside_txn_rejected(self):
        system, _ = make_system()
        with pytest.raises(RuntimeError):
            system.commit(0)

    def test_timestamps_preserved_across_restart(self):
        system, _ = make_system()
        system.begin(0)
        ts0 = system.ctx[0].ts
        system.begin(1)
        assert system.ctx[1].ts > ts0
        # Simulate restart: the original timestamp is kept so the
        # oldest-transaction-wins policy guarantees progress.
        system.ctx[0].active = False
        system.begin(0, restart=True)
        assert system.ctx[0].ts == ts0


class TestConflictResolution:
    def test_older_requester_dooms_younger_holder(self):
        system, memory = make_system()
        system.begin(0)  # older
        system.begin(1)  # younger
        system.store(1, ADDR, 8, 99)
        system.store(0, ADDR, 8, 1)  # conflicts; core 1 is doomed
        assert system.poll_doomed(1) == "conflict"
        assert memory.read(ADDR) == 1  # core 1's store rolled back first

    def test_younger_requester_stalls(self):
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        with pytest.raises(StallRetry):
            system.store(1, ADDR, 8, 2)
        # After the holder commits, the retry succeeds.
        system.commit(0)
        system.store(1, ADDR, 8, 2)

    def test_read_read_is_not_a_conflict(self):
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.load(0, ADDR, 8)
        system.load(1, ADDR, 8)  # no exception
        system.commit(0)
        system.commit(1)

    def test_write_read_conflict(self):
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.load(1, ADDR, 8)
        # Older writer aborts the younger reader.
        system.store(0, ADDR, 8, 5)
        assert system.poll_doomed(1) == "conflict"

    def test_non_transactional_access_always_wins(self):
        system, memory = make_system()
        system.begin(0)
        system.store(0, ADDR, 8, 5)
        system.store(2, ADDR, 8, 7)  # core 2 not in a transaction
        assert system.poll_doomed(0) == "conflict"
        assert memory.read(ADDR) == 7

    def test_equal_timestamps_resolve_without_deadlock_abort(self):
        """Regression: two transactions with the *same* timestamp must
        resolve via the policy's core-id tie-break, not by stalling in
        both directions until the deadlock detector shoots one."""
        system, _ = make_system()
        system.begin(0)
        system.begin(1)
        system.ctx[0].ts = system.ctx[1].ts = 7  # began on the same cycle
        system.store(0, ADDR, 8, 1)
        system.store(1, ADDR + 64, 8, 2)
        with pytest.raises(StallRetry):
            # Higher-id requester: core 0 is effectively older under
            # the (ts, core id) order, so core 1 waits.
            system.store(1, ADDR, 8, 3)
        # Lower-id requester wins the tie outright — core 1 is doomed
        # by the policy, not by a wait-cycle break.
        system.store(0, ADDR + 64, 8, 4)
        assert system.poll_doomed(1) == "conflict"
        assert system.poll_doomed(0) is None
        system.commit(0)
        assert system.stats.core(0).commits == 1

    @pytest.mark.parametrize(
        "waits, closing",
        [
            # 1 waits on 0; 0 requesting 1's block closes the cycle.
            pytest.param([(1, 0)], (0, 1), id="2-core"),
            # 0 waits on 1, 1 waits on 2; 2 requesting 0's block closes
            # it through the transitive walk.
            pytest.param([(0, 1), (1, 2)], (2, 0), id="3-core"),
        ],
    )
    def test_stall_deadlock_broken_by_aborting_younger(self, waits, closing):
        system, _ = make_system("eager-stall")
        for core in range(3):
            system.begin(core)
            system.store(core, ADDR + 64 * core, 8, core + 1)
        for requester, holder in waits:
            with pytest.raises(StallRetry):
                system.store(requester, ADDR + 64 * holder, 8, 9)
        # Closing the wait cycle would deadlock: the younger of the
        # closing pair dies, and nobody else does.
        requester, holder = closing
        younger = max(requester, holder)  # begun in core-id order
        if younger == requester:
            with pytest.raises(TxnAborted):
                system.store(requester, ADDR + 64 * holder, 8, 9)
        else:
            system.store(requester, ADDR + 64 * holder, 8, 9)
            assert system.poll_doomed(younger) == "conflict"
        assert system.stats.core(younger).aborts == {"conflict": 1}
        for core in set(range(3)) - {younger}:
            assert system.stats.core(core).aborts == {}
            assert system.poll_doomed(core) is None

    def test_transitive_wait_chain_without_cycle_still_stalls(self):
        """A holder with a wait edge of its own is the one case the walk
        runs for; a chain that ends short of the requester stalls."""
        system, _ = make_system("eager-stall")
        for core in range(3):
            system.begin(core)
            system.store(core, ADDR + 64 * core, 8, core + 1)
        with pytest.raises(StallRetry):
            system.store(1, ADDR + 128, 8, 9)  # 1 waits on 2
        with pytest.raises(StallRetry) as stall:
            system.store(0, ADDR + 64, 8, 9)  # 0 -> 1 -> 2: no cycle
        assert stall.value.blockers == {1}
        assert system._waiting_on == {0: 1, 1: 2}
        assert all(system.stats.core(c).aborts == {} for c in range(3))

    def test_stale_wait_edge_cleared_when_holder_commits(self):
        """Regression: an edge added on STALL must die with the
        holder's transaction, whichever way it ends — not survive
        until the stalled requester happens to retry."""
        system, _ = make_system()
        system.begin(1)
        system.store(1, ADDR, 8, 1)
        system.begin(2)
        system.store(2, ADDR + 64, 8, 2)
        with pytest.raises(StallRetry):
            system.store(2, ADDR, 8, 3)  # 2 waits on 1
        assert system._waiting_on == {2: 1}
        system.commit(1)  # the holder leaves via its own commit
        assert 2 not in system._waiting_on

        # Pre-fix, the stale 2->1 edge made core 1's next (younger)
        # transaction see a phantom cycle through core 2 and abort
        # itself instead of stalling.
        system.begin(1)
        with pytest.raises(StallRetry):
            system.store(1, ADDR + 64, 8, 4)
        assert system.ctx[1].active
        assert system.poll_doomed(2) is None
        assert system.stats.core(1).aborts == {}

    def test_stale_wait_edge_cleared_when_holder_is_doomed(self):
        system, _ = make_system()
        system.begin(1)
        system.store(1, ADDR, 8, 1)
        system.begin(2)
        with pytest.raises(StallRetry):
            system.store(2, ADDR, 8, 3)  # 2 waits on 1
        system._doom(1, reason="conflict")  # holder aborted remotely
        assert 2 not in system._waiting_on


class TestVersioning:
    def test_abort_restores_memory(self):
        system, memory = make_system()
        memory.write(ADDR, 10)
        system.begin(0)
        system.store(0, ADDR, 8, 20)
        assert memory.read(ADDR) == 20  # eager: in place
        system._doom(0, reason="conflict")
        assert memory.read(ADDR) == 10
        assert system.poll_doomed(0) == "conflict"

    def test_doomed_core_restores_before_requester_reads(self):
        system, memory = make_system()
        memory.write(ADDR, 10)
        system.begin(1)
        system.store(1, ADDR, 8, 99)
        system.begin(0)  # hmm: 0 begun after 1, so 0 is younger
        with pytest.raises(StallRetry):
            system.load(0, ADDR, 8)
        system._doom(1, reason="conflict")
        result = system.load(0, ADDR, 8)
        assert result.value == 10


class TestStatsAccounting:
    def test_aborts_counted_by_reason(self):
        system, _ = make_system()
        system.begin(0)
        with pytest.raises(TxnAborted):
            system._abort_self(0, reason="capacity")
        assert system.stats.core(0).aborts == {"capacity": 1}
