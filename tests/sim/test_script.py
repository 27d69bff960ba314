"""Thread scripts and sequential-order helpers."""

from repro.isa.program import Assembler
from repro.sim.script import (
    Barrier,
    ThreadScript,
    Txn,
    Work,
    concatenate,
)


def txn():
    return Assembler().nop(1).build()


class TestThreadScript:
    def test_builders(self):
        script = ThreadScript()
        script.add_txn(txn(), label="t")
        script.add_work(10)
        script.add_barrier()
        assert [type(i) for i in script.items] == [Txn, Work, Barrier]
        assert script.txn_count() == 1
        assert len(script) == 3

    def test_zero_work_elided(self):
        script = ThreadScript()
        script.add_work(0)
        assert len(script) == 0

    def test_items_and_programs_carry_no_instance_dict(self):
        """A run holds one Program and one Txn per transaction and one
        Work per gap: none of them pays for a ``__dict__``."""
        program = txn()
        for obj in (program, Txn(program), Work(3)):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


class TestSequentialOrders:
    def make(self):
        a = ThreadScript()
        a.add_txn(txn(), "a1")
        a.add_barrier()
        a.add_txn(txn(), "a2")
        b = ThreadScript()
        b.add_txn(txn(), "b1")
        b.add_barrier()
        b.add_txn(txn(), "b2")
        return a, b

    def test_concatenate_drops_barriers(self):
        merged = concatenate(list(self.make()))
        labels = [i.label for i in merged.items if isinstance(i, Txn)]
        assert labels == ["a1", "a2", "b1", "b2"]
        assert not any(isinstance(i, Barrier) for i in merged.items)
