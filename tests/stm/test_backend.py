"""The software TM backend: lazy versioning, validation, cost model."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.events import TxnAborted
from repro.mem.memory import MainMemory, WriteBuffer
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats
from repro.stm.backend import (
    COMMIT_INSTRS,
    READ_BARRIER_INSTRS,
    STMSystem,
    SUBSCRIBE_INSTRS,
    VALIDATE_INSTRS,
    WRITE_BARRIER_INSTRS,
)
from repro.stm.metadata import CLOCK_ADDR
from tests.conftest import run_counter_machine

ADDR = 0x4000


def make_stm(ncores=2, **overrides):
    config = small_test_config(ncores=ncores, **overrides)
    memory = MainMemory()
    system = STMSystem(
        config, memory, CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )
    return system, memory


def byte_buffer(*writes):
    wbuf = WriteBuffer()
    for addr, byte in writes:
        wbuf.write(addr, 1, byte)
    return wbuf


class TestCoalesce:
    """The commit plan's stores are the write buffer's runs."""

    def test_adjacent_bytes_form_one_run(self):
        wbuf = byte_buffer((100, 0x11), (101, 0x22), (102, 0x33))
        assert wbuf.runs() == [(100, 3, 0x332211)]

    def test_gaps_split_runs(self):
        wbuf = byte_buffer((100, 0xAA), (102, 0xBB))
        assert wbuf.runs() == [(100, 1, 0xAA), (102, 1, 0xBB)]

    def test_order_independent(self):
        wbuf = byte_buffer((101, 0x02), (100, 0x01))
        assert wbuf.runs() == [(100, 2, 0x0201)]


class TestLazyVersioning:
    def test_store_is_buffered_until_commit(self):
        system, memory = make_stm()
        memory.write(ADDR, 7)
        system.begin(0)
        system.store(0, ADDR, 8, 42)
        assert memory.read(ADDR) == 7  # nothing written back yet
        system.commit(0)
        assert memory.read(ADDR) == 42

    def test_reads_see_own_write_buffer(self):
        system, memory = make_stm()
        memory.write(ADDR, 7)
        system.begin(0)
        system.store(0, ADDR, 8, 42)
        assert system.load(0, ADDR, 8).value == 42

    def test_abort_discards_buffer(self):
        system, memory = make_stm()
        memory.write(ADDR, 7)
        system.begin(0)
        system.store(0, ADDR, 8, 42)
        with pytest.raises(TxnAborted):
            system._abort_self(0, reason="conflict")
        assert memory.read(ADDR) == 7


class TestValidation:
    def test_concurrent_writer_commit_aborts_reader(self):
        system, memory = make_stm()
        memory.write(ADDR, 1)
        system.begin(0)
        system.load(0, ADDR, 8)  # samples the orec version
        system.begin(1)
        system.store(1, ADDR, 8, 2)
        system.commit(1)  # bumps the orec
        with pytest.raises(TxnAborted):
            system.commit(0)
        assert system.stats.core(0).aborts == {"validation": 1}

    def test_nontx_store_is_strongly_isolated(self):
        # A non-transactional store bumps the orec, so an overlapping
        # software snapshot fails validation instead of committing on
        # a torn view.
        system, memory = make_stm()
        memory.write(ADDR, 1)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.store(1, ADDR, 8, 99)  # core 1 is not in a transaction
        with pytest.raises(TxnAborted):
            system.commit(0)

    def test_disjoint_commits_coexist(self):
        system, memory = make_stm()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        system.store(1, ADDR + 0x1000, 8, 2)
        system.commit(0)
        system.commit(1)
        assert memory.read(ADDR) == 1
        assert memory.read(ADDR + 0x1000) == 2


class TestCostModel:
    def test_barrier_costs_are_pinned(self):
        assert (
            READ_BARRIER_INSTRS, WRITE_BARRIER_INSTRS, VALIDATE_INSTRS,
            COMMIT_INSTRS, SUBSCRIBE_INSTRS,
        ) == (2, 3, 1, 2, 1)

    def test_barrier_instrs_accumulate_per_op(self):
        system, _ = make_stm()
        system.begin(0)
        system.load(0, ADDR, 8)
        system.store(0, ADDR, 8, 5)
        system.commit(0)
        expected = (
            READ_BARRIER_INSTRS
            + WRITE_BARRIER_INSTRS
            + 1 * VALIDATE_INSTRS   # one read orec validated
            + 1 * COMMIT_INSTRS     # one write orec bumped
        )
        assert system.stats.core(0).barrier_instrs == expected

    def test_aborted_attempt_still_charges_barriers(self):
        system, _ = make_stm()
        system.begin(0)
        system.load(0, ADDR, 8)
        system.begin(1)
        system.store(1, ADDR, 8, 2)
        system.commit(1)
        with pytest.raises(TxnAborted):
            system.commit(0)
        # The wasted software work is real work: it stays counted.
        assert system.stats.core(0).barrier_instrs > 0

    def test_read_only_commit_skips_writeback_cost(self):
        system, memory = make_stm()
        memory.write(CLOCK_ADDR, 0, 8)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.commit(0)
        # No stores: the global clock is never bumped.
        assert memory.read(CLOCK_ADDR, 8) == 0


class TestFallbackStatsGuard:
    """Satellite: the all-fallback mirror of PR3's all-abort guard."""

    def test_zero_commit_rates_do_not_divide_by_zero(self):
        stats = MachineStats(2)
        assert stats.stm_fallback_rate() == 0.0
        assert stats.abort_rate_percent() == 0.0
        assert stats.total_stm_commits() == 0

    def test_all_fallback_run_has_sane_rates(self):
        config = small_test_config(ncores=2, retry_budget=0)
        result, counter = run_counter_machine(
            "hybrid-retcon", ncores=2, txns_per_core=4, config=config
        )
        assert counter == 16
        stats = result.stats
        # retry_budget=0: every transaction escalated, and the rate
        # stays a well-defined fraction of commits.
        assert stats.total_stm_fallbacks() == stats.total_commits()
        assert stats.stm_fallback_rate() == 1.0
        assert 0.0 <= stats.abort_rate_percent() <= 100.0

    def test_pure_stm_does_not_count_fallbacks(self):
        result, counter = run_counter_machine(
            "stm", ncores=2, txns_per_core=4
        )
        assert counter == 16
        # Software-by-design is not a *fallback*, but every commit is
        # on the software path, so the rate reads 1.0.
        assert result.stats.total_stm_fallbacks() == 0
        assert result.stats.stm_fallback_rate() == 1.0


class TestEndToEnd:
    def test_counter_serializes_exactly(self):
        result, counter = run_counter_machine(
            "stm", ncores=4, txns_per_core=5
        )
        assert counter == 40
        assert result.stats.total_stm_commits() == result.commits
        assert result.stats.total_barrier_instrs() > 0

    def test_observed_sets_cover_every_commit(self):
        metrics = MetricsRegistry()
        result, _ = run_counter_machine(
            "stm", ncores=2, txns_per_core=4, metrics=metrics
        )
        # Every software commit observes its orec sets once; the
        # counter transaction reads and writes one block.
        for name in ("txn.read_set_size", "txn.write_set_size"):
            hist = metrics.get(name)
            assert hist.count == result.commits, name
            assert hist.minimum >= 1, name
