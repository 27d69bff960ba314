"""RETCON + forwarding hybrid (the paper's §7 future work)."""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.backends import BACKENDS, build_system
from repro.htm.events import StallRetry
from repro.mem.address import block_of
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats
from tests.conftest import run_counter_machine

ADDR = 0x4000


def make_hybrid(ncores=3):
    config = small_test_config(ncores=ncores)
    memory = MainMemory()
    system = build_system(
        "retcon-fwd", config, memory, CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )
    return system, memory


class TestHybridPaths:
    def test_tracked_blocks_still_repair(self):
        system, memory = make_hybrid()
        memory.write(ADDR, 10)
        system.engine(0).predictor.observe_conflict(block_of(ADDR))
        system.begin(0)
        r = system.load(0, ADDR, 8)
        assert r.sym is not None
        engine = system.engine(0)
        engine.alu("add", 1, r.sym, None, r.value, 1)
        system.store(0, ADDR, 8, 11, sym=engine.reg_sym(1))
        system.store(1, ADDR, 8, 50)  # non-tx steal
        system.commit(0)
        assert memory.read(ADDR) == 51

    def test_untracked_conflicts_forward(self):
        system, memory = make_hybrid()
        memory.write(ADDR, 5)
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 42)  # eager speculative store
        # Instead of stalling/aborting, core 1 consumes the forwarded
        # value and takes a commit-order dependence.
        result = system.load(1, ADDR, 8)
        assert result.value == 42
        assert 0 in system._preds[1]

    def test_dependent_commit_waits(self):
        system, _ = make_hybrid()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 1)
        system.load(1, ADDR, 8)
        with pytest.raises(StallRetry):
            system.commit(1)
        system.commit(0)
        system.commit(1)

    def test_abort_cascades_through_forwarded_data(self):
        system, memory = make_hybrid()
        memory.write(ADDR, 7)
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 99)
        system.load(1, ADDR, 8)
        system._doom(0, reason="conflict")
        assert system.poll_doomed(1) == "dependence"
        assert memory.read(ADDR) == 7


class TestHybridEndToEnd:
    def test_counter_serializes_exactly(self):
        result, counter = run_counter_machine(
            "retcon-fwd", ncores=4, txns_per_core=5
        )
        assert counter == 40

    def test_matches_retcon_on_repairable_work(self):
        hybrid, counter = run_counter_machine(
            "retcon-fwd", ncores=4, txns_per_core=8
        )
        plain, _ = run_counter_machine(
            "retcon", ncores=4, txns_per_core=8
        )
        assert counter == 64
        # Once the counter block trains, both repair; cycles comparable.
        assert hybrid.cycles < 2.5 * plain.cycles


class TestOracleContract:
    """retcon-fwd forwards speculative values, so replay-based commit
    checking is meaningless: the machine must *refuse* the oracle, not
    skip it silently or spuriously flag forwarded-value commits as
    violations."""

    def test_flag_is_declared(self):
        assert BACKENDS["retcon-fwd"].commit_atomic is False

    def test_machine_refuses_a_checked_forwarding_hybrid(self):
        from repro.isa.program import Assembler
        from repro.isa.registers import R1
        from repro.sim.config import MachineConfig
        from repro.sim.machine import Machine
        from repro.sim.script import ThreadScript

        def scripts(n=2, txns=6):
            out = []
            for _ in range(n):
                script = ThreadScript()
                for _ in range(txns):
                    asm = Assembler()
                    asm.load(R1, ADDR)
                    asm.addi(R1, R1, 1)
                    asm.store(R1, ADDR)
                    asm.halt()
                    script.add_txn(asm.build())
                    script.add_work(3)
                out.append(script)
            return out

        with pytest.raises(ValueError, match="retcon-fwd"):
            Machine(
                MachineConfig(ncores=2), "retcon-fwd", scripts(),
                MainMemory(), check=True,
            )
        memory = MainMemory()
        Machine(
            MachineConfig(ncores=2), "retcon-fwd", scripts(), memory
        ).run()
        assert memory.read(ADDR) == 12  # still serializable

        # Control: the same scenario on plain retcon IS oracle-checked
        # and stays violation-free.
        memory = MainMemory()
        machine = Machine(
            MachineConfig(ncores=2), "retcon", scripts(), memory,
            check=True,
        )
        assert machine.oracle is not None
        machine.run()
        assert machine.oracle.checked_commits > 0
        assert machine.oracle.total_violations == 0

    def test_dependence_recorded_per_forwarded_block(self):
        # The commit-order edge is the forwarding hybrid's correctness
        # backbone: every consumed speculative value records its
        # producer, and the edge drains when the producer commits.
        system, _ = make_hybrid()
        system.begin(0)
        system.begin(1)
        system.store(0, ADDR, 8, 21)
        system.load(1, ADDR, 8)
        assert system._preds[1] == {0}
        system.commit(0)
        assert not system._preds[1]
        system.commit(1)  # no StallRetry: the predecessor is gone
