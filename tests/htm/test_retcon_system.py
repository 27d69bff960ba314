"""RETCON TM system: tracked paths, stealing, pre-commit repair."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.events import TxnAborted
from repro.htm.backends import build_system
from repro.htm.system import RetconTMSystem
from repro.mem.address import block_of
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats

ADDR = 0x4000
BLOCK = block_of(ADDR)


def make_retcon(ncores=3, **kwargs):
    config = small_test_config(ncores=ncores)
    memory = MainMemory()
    fabric = CoherenceFabric(config, ncores)
    stats = MachineStats(ncores)
    system = RetconTMSystem(config, memory, fabric, stats, **kwargs)
    return system, memory


class TestTrackingDecisions:
    def test_untrained_block_uses_eager_path(self):
        system, _ = make_retcon()
        system.begin(0)
        result = system.load(0, ADDR, 8)
        assert result.sym is None
        assert system.fabric.is_spec(0, BLOCK)

    def test_trained_block_is_tracked(self):
        system, _ = make_retcon()
        system.engine(0).predictor.observe_conflict(BLOCK)
        system.begin(0)
        result = system.load(0, ADDR, 8)
        assert result.sym is not None
        assert not system.fabric.is_spec(0, BLOCK)  # value-protected

    def test_mode_sticks_for_the_transaction(self):
        system, _ = make_retcon()
        system.begin(0)
        system.load(0, ADDR, 8)  # eager (untrained)
        system.engine(0).predictor.observe_conflict(BLOCK)
        result = system.load(0, ADDR, 8)
        assert result.sym is None  # still eager this transaction
        system.commit(0)
        system.begin(0)
        assert system.load(0, ADDR, 8).sym is not None

    def test_no_capture_while_remote_eager_writer_exists(self):
        system, _ = make_retcon()
        system.engine(1).predictor.observe_conflict(BLOCK)
        system.begin(0)  # older
        system.begin(1)
        system.store(0, ADDR, 8, 42)  # eager speculative store
        # Core 1 must not capture uncommitted data; it falls back to
        # the eager path, which detects the conflict (younger stalls).
        from repro.htm.events import StallRetry

        with pytest.raises(StallRetry):
            system.load(1, ADDR, 8)

    def test_ivb_full_falls_back_to_eager(self):
        config = small_test_config(ncores=2, ivb_entries=1)
        memory = MainMemory()
        fabric = CoherenceFabric(config, 2)
        system = RetconTMSystem(
            config, memory, fabric, MachineStats(2)
        )
        predictor = system.engine(0).predictor
        predictor.observe_conflict(BLOCK)
        predictor.observe_conflict(BLOCK + 1)
        system.begin(0)
        assert system.load(0, ADDR, 8).sym is not None
        assert system.load(0, ADDR + 64, 8).sym is None  # IVB full


class TestStealingAndRepair:
    def test_counter_steal_and_repair(self):
        system, memory = make_retcon()
        memory.write(ADDR, 10)
        system.engine(0).predictor.observe_conflict(BLOCK)
        system.begin(0)
        r = system.load(0, ADDR, 8)
        engine = system.engine(0)
        engine.alu("add", 1, r.sym, None, r.value, 1)
        system.store(0, ADDR, 8, 11, sym=engine.reg_sym(1))
        # Remote (non-transactional) write steals the block.
        system.store(1, ADDR, 8, 50)
        latency, _plan = system.commit(0)
        assert memory.read(ADDR) == 51  # repaired: 50 + 1
        assert system.stats.core(0).commits == 1
        assert latency > 0

    def test_lazy_vb_aborts_on_changed_value(self):
        system, memory = make_retcon(track_all=True)
        memory.write(ADDR, 10)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.store(1, ADDR, 8, 50)
        with pytest.raises(TxnAborted, match="constraint"):
            system.commit(0)

    def test_lazy_vb_commits_on_silent_remote_write(self):
        system, memory = make_retcon(track_all=True)
        memory.write(ADDR, 10)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.store(1, ADDR, 8, 10)  # silent: same value
        system.commit(0)  # byte-precise validation passes

    def test_lazy_vb_ignores_false_sharing(self):
        system, memory = make_retcon(track_all=True)
        system.begin(0)
        system.load(0, ADDR, 8)
        # Remote write to a *different word* of the same block.
        system.store(1, ADDR + 8, 8, 7)
        system.commit(0)

    def test_eager_baseline_conflicts_on_false_sharing(self):
        from repro.htm.events import StallRetry

        system, _ = make_system_pair()
        system.begin(0)
        system.load(0, ADDR, 8)
        system.begin(1)
        # Same block, different word: still a conflict for eager
        # (block-granularity detection); the younger writer stalls.
        with pytest.raises(StallRetry):
            system.store(1, ADDR + 8, 8, 7)

    def test_capacity_abort_trains_predictor_down(self):
        """Regression: a transaction whose footprint inherently
        overflows the SSB must not retry the tracked path forever —
        the capacity abort trains the predictor down so the retry
        takes the eager path and completes."""
        from repro.isa.program import Assembler
        from repro.isa.registers import R1
        from repro.mem.address import block_of as blk
        from repro.sim.machine import Machine
        from repro.sim.script import ThreadScript

        config = small_test_config(ncores=1, ssb_entries=2)
        memory = MainMemory()
        script = ThreadScript()
        asm = Assembler()
        for i in range(4):  # 4 buffered stores > 2 SSB entries
            addr = ADDR + 64 * i
            asm.load(R1, addr)
            asm.addi(R1, R1, 1)
            asm.store(R1, addr)
        script.add_txn(asm.build())
        machine = Machine(config, "retcon", [script], memory)
        engine = machine.system.engine(0)
        for i in range(4):
            engine.predictor.observe_conflict(blk(ADDR + 64 * i))
        machine.run(max_cycles=1_000_000)  # must terminate
        assert machine.stats.core(0).aborts.get("capacity", 0) >= 1
        assert machine.stats.core(0).commits == 1
        for i in range(4):
            assert memory.read(ADDR + 64 * i) == 1

    def test_capacity_abort_on_ssb_overflow(self):
        config = small_test_config(ncores=2, ssb_entries=2)
        memory = MainMemory()
        system = RetconTMSystem(
            config, memory, CoherenceFabric(config, 2), MachineStats(2)
        )
        system.engine(0).predictor.observe_conflict(BLOCK)
        system.begin(0)
        system.load(0, ADDR, 8)
        system.store(0, ADDR, 8, 1)
        system.store(0, ADDR + 8, 8, 2)
        with pytest.raises(TxnAborted, match="capacity"):
            system.store(0, ADDR + 16, 8, 3)
        assert system.stats.core(0).aborts == {"capacity": 1}


def make_system_pair():
    config = small_test_config(ncores=2)
    memory = MainMemory()
    fabric = CoherenceFabric(config, 2)
    system = build_system(
        "eager", config, memory, fabric, MachineStats(2)
    )
    return system, memory


class TestIdealized:
    def test_idealized_reacquires_in_parallel(self):
        config = small_test_config(ncores=2).idealize()
        memory = MainMemory()
        system = RetconTMSystem(
            config, memory, CoherenceFabric(config, 2), MachineStats(2)
        )
        predictor = system.engine(0).predictor
        for offset in range(0, 4 * 64, 64):
            predictor.observe_conflict(block_of(ADDR + offset))
        system.begin(0)
        engine = system.engine(0)
        for offset in range(0, 4 * 64, 64):
            r = system.load(0, ADDR + offset, 8)
            engine.alu("add", 1, r.sym, None, r.value, 1)
            system.store(0, ADDR + offset, 8, 1, sym=engine.reg_sym(1))
        for offset in range(0, 4 * 64, 64):
            system.store(1, ADDR + offset, 8, 100)
        latency, _plan = system.commit(0)
        # Parallel reacquire + free stores: latency is one miss, not 4.
        assert latency <= 150
        for offset in range(0, 4 * 64, 64):
            assert memory.read(ADDR + offset) == 101
