"""OneTM overflow serialization (paper §2).

Transactions whose speculative footprint escapes both the L1 and the
permissions-only cache lose precise conflict tracking; the OneTM
backing mechanism serializes them against all other transactions.
With the paper's permissions-only cache this path is essentially never
taken on the Table 2 workloads — these tests force it with tiny
caches.
"""

from repro.isa.program import Assembler
from repro.isa.registers import R1
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript


def big_footprint_txn(base: int, nblocks: int):
    asm = Assembler()
    for i in range(nblocks):
        addr = base + 64 * i
        asm.load(R1, addr)
        asm.addi(R1, R1, 1)
        asm.store(R1, addr)
    return asm.build()


def tiny_cache_config(ncores=2):
    return small_test_config(
        ncores=ncores,
        l1_bytes=256,  # 4 lines
        l1_assoc=1,
        l2_bytes=1024,
        perm_cache_bytes=4,  # 4 permissions-only entries
        perm_cache_assoc=1,
    )


class TestOverflow:
    def test_overflowing_txn_still_commits_exactly(self):
        memory = MainMemory()
        nblocks = 24
        script = ThreadScript()
        script.add_txn(big_footprint_txn(4096, nblocks))
        machine = Machine(
            tiny_cache_config(1), "eager", [script], memory
        )
        machine.run()
        assert machine.fabric.overflow_events > 0
        for i in range(nblocks):
            assert memory.read(4096 + 64 * i) == 1

    def test_overflowed_txn_conflicts_conservatively(self):
        """Once overflowed, the transaction conflicts with every other
        in-flight transaction on any access (OneTM serialization)."""
        config = tiny_cache_config(2)
        memory = MainMemory()
        from repro.coherence.directory import CoherenceFabric
        from repro.htm.system import BaseTMSystem
        from repro.sim.stats import MachineStats

        fabric = CoherenceFabric(config, 2)
        system = BaseTMSystem(
            config, memory, fabric, MachineStats(2)
        )
        fabric.overflowed.add(1)
        system.begin(0)
        system.begin(1)
        # Core 0 touches a block core 1 never touched: still a
        # conflict because core 1 lost precise tracking.
        probed = fabric.probe(0, 12345, write=False)
        assert probed is None
        assert system._with_overflowed(0, probed) == {1}

    def test_spills_counted_before_overflow(self):
        memory = MainMemory()
        script = ThreadScript()
        script.add_txn(big_footprint_txn(4096, 6))
        machine = Machine(
            tiny_cache_config(1), "eager", [script], memory
        )
        machine.run()
        assert machine.fabric.perm_cache_spills > 0

    def test_concurrent_overflow_remains_serializable(self):
        memory = MainMemory()
        counter_base = 4096
        nblocks = 16
        scripts = []
        for _ in range(2):
            script = ThreadScript()
            for _ in range(2):
                script.add_txn(big_footprint_txn(counter_base, nblocks))
            scripts.append(script)
        machine = Machine(
            tiny_cache_config(2), "eager", scripts, memory
        )
        machine.run(max_cycles=50_000_000)
        for i in range(nblocks):
            assert memory.read(counter_base + 64 * i) == 4
