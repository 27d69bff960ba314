"""The HyTM family: escalation policy, subscription, progressive."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.events import StallRetry, TxnAborted
from repro.htm.backends import BACKENDS, build_system
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats
from repro.stm.backend import SUBSCRIBE_INSTRS, STMMixin
from tests.conftest import run_counter_machine

ADDR = 0x4000

#: the hybrid family: every backend row with a hardware fast path
#: and an STM fallback
HYBRID_SYSTEMS = tuple(
    name for name, row in BACKENDS.items() if row.kwargs.get("hybrid")
)


def make(name="hybrid-retcon", ncores=3, **overrides):
    config = small_test_config(ncores=ncores, **overrides)
    memory = MainMemory()
    system = build_system(
        name, config, memory, CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )
    return system, memory


class TestConstruction:
    def test_every_hybrid_builds_by_name(self):
        assert HYBRID_SYSTEMS == (
            "hybrid-retcon", "hybrid-eager", "hybrid-lazy-vb",
            "progressive",
        )
        for name in HYBRID_SYSTEMS:
            system, _ = make(name)
            assert system.name == name
            assert isinstance(system, STMMixin)
            assert system.hybrid

    def test_build_system_routes_the_family(self):
        config = small_test_config(ncores=2)
        for name in ("stm",) + HYBRID_SYSTEMS:
            memory = MainMemory()
            system = build_system(
                name, config, memory,
                CoherenceFabric(config, 2), MachineStats(2),
            )
            assert system.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make("hybrid-bogus")

    def test_progressive_is_pessimistic(self):
        system, _ = make("progressive")
        assert system.pessimistic_fallback
        assert not make("hybrid-retcon")[0].pessimistic_fallback


class TestEscalation:
    def test_first_attempts_stay_on_hardware(self):
        system, _ = make(retry_budget=2)
        system.begin(0)
        assert not system.ctx[0].stm

    def test_budget_exhaustion_escalates(self):
        system, _ = make(retry_budget=1)
        system.begin(0)
        with pytest.raises(TxnAborted):
            system._abort_self(0, reason="conflict")
        system.begin(0, restart=True)  # attempt 2 > budget 1
        assert system.ctx[0].stm
        assert system.stats.core(0).stm_fallbacks == 1

    def test_capacity_abort_escalates_immediately(self):
        # Retrying a capacity overflow is futile regardless of budget.
        system, _ = make(retry_budget=8)
        system.begin(0)
        with pytest.raises(TxnAborted):
            system._abort_self(0, reason="capacity")
        system.begin(0, restart=True)
        assert system.ctx[0].stm
        assert system.stats.core(0).stm_fallbacks == 1

    def test_escalation_is_sticky_until_commit(self):
        system, _ = make(retry_budget=0)
        system.begin(0)
        assert system.ctx[0].stm  # budget 0: software at once
        system.store(0, ADDR, 8, 1)
        system.commit(0)
        # A fresh logical transaction restarts on hardware... well,
        # with budget 0 it escalates again, but the sticky flag was
        # cleared: a second fallback is counted.
        system.begin(0)
        assert system.stats.core(0).stm_fallbacks == 2

    def test_fallback_commits_through_stm_path(self):
        system, memory = make(retry_budget=0)
        system.begin(0)
        system.store(0, ADDR, 8, 77)
        assert memory.read(ADDR) == 0  # buffered, not eager
        system.commit(0)
        assert memory.read(ADDR) == 77
        assert system.stats.core(0).stm_commits == 1


class TestSubscription:
    def test_hardware_txn_subscribes_on_first_access(self):
        system, _ = make()
        system.begin(0)
        system.load(0, ADDR, 8)
        assert system.ctx[0].subscribed
        assert system.stats.core(0).barrier_instrs == SUBSCRIBE_INSTRS

    def test_stm_commit_dooms_subscribed_hardware_txn(self):
        system, memory = make(retry_budget=0)
        system.begin(0)            # hardware? no — rb=0, core 0 is stm
        assert system.ctx[0].stm
        system.store(0, ADDR, 8, 5)
        system.begin(1)
        # Give core 1 hardware speculation on an unrelated block; the
        # subscription load is what kills it, not a data conflict.
        system._escalated[1] = False
        system.ctx[1].stm = False
        system.load(1, ADDR + 0x1000, 8)
        assert system.ctx[1].subscribed
        system.commit(0)
        assert system.poll_doomed(1) == "subscription"
        assert memory.read(ADDR) == 5

    def test_read_only_stm_commit_spares_subscribers(self):
        system, _ = make(retry_budget=0)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.begin(1)
        system._escalated[1] = False
        system.ctx[1].stm = False
        system.load(1, ADDR + 0x1000, 8)
        system.commit(0)  # empty write buffer: publishes nothing
        assert system.poll_doomed(1) is None

    def test_hardware_commit_publishes_to_orecs(self):
        # An HTM commit bumps the orecs of its write set, so a
        # concurrent software snapshot fails validation.
        system, _ = make()
        system.begin(0)  # hardware fast path
        system.begin(1)
        system._stm_begin(1, system.ctx[1])  # force core 1 software
        system.load(1, ADDR + 0x1000, 8)
        system.store(0, ADDR + 0x1000, 8, 9)
        system.commit(0)
        with pytest.raises(TxnAborted):
            system.commit(1)
        assert system.stats.core(1).aborts == {"validation": 1}


class TestProgressive:
    def test_fallbacks_serialize_on_the_token(self):
        system, _ = make("progressive", retry_budget=0)
        system.begin(0)
        system.load(0, ADDR, 8)  # takes the token
        system.begin(1)
        with pytest.raises(StallRetry):
            system.load(1, ADDR + 0x1000, 8)
        system.commit(0)  # releases the token
        system.load(1, ADDR + 0x1000, 8)
        system.commit(1)

    def test_fallback_wins_against_hardware_writer(self):
        system, memory = make("progressive", retry_budget=0)
        memory.write(ADDR, 3)
        system.begin(0)
        system._escalated[0] = False
        system.ctx[0].stm = False
        system.store(0, ADDR, 8, 99)   # eager hardware speculation
        system.begin(1)                # pessimistic fallback
        assert system.load(1, ADDR, 8).value == 3  # writer doomed
        assert system.poll_doomed(0) == "subscription"
        system.commit(1)

    def test_hardware_commit_vetoed_on_owned_block(self):
        system, _ = make("progressive", retry_budget=0)
        system.begin(1)
        system.load(1, ADDR, 8)  # fallback owns the orec
        system.begin(0)
        system._escalated[0] = False
        system.ctx[0].stm = False
        system.store(0, ADDR + 0x2000, 8, 1)  # disjoint block...
        # ...but make the footprints collide on the orec table to
        # exercise the owner check (hash conflicts are spurious
        # aborts, never missed ones).
        system.fabric.cores[0].spec_written.add(ADDR // 64)
        with pytest.raises(TxnAborted):
            system.commit(0)
        assert system.stats.core(0).aborts == {"subscription": 1}

    def test_never_aborts_twice_end_to_end(self):
        config = small_test_config(ncores=4, retry_budget=0)
        result, counter = run_counter_machine(
            "progressive", ncores=4, txns_per_core=8, config=config
        )
        assert counter == 64
        # Every transaction escalated on its first attempt and the
        # pessimistic fallback then ran to commit unimpeded.
        assert result.stats.total_aborts() == 0


class TestEndToEnd:
    @pytest.mark.parametrize("name", HYBRID_SYSTEMS)
    def test_counter_serializes_exactly(self, name):
        result, counter = run_counter_machine(
            name, ncores=3, txns_per_core=4
        )
        assert counter == 24

    def test_generous_budget_avoids_fallbacks(self):
        # RETCON repairs the counter conflicts, so the hardware path
        # never gives up under a sane budget.
        config = small_test_config(ncores=3, retry_budget=8)
        result, counter = run_counter_machine(
            "hybrid-retcon", ncores=3, txns_per_core=4, config=config
        )
        assert counter == 24
        assert result.stats.total_stm_fallbacks() == 0
