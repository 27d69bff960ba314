"""Undo log (eager version management)."""

from repro.htm.versioning import UndoLog
from repro.mem.memory import MainMemory


class TestUndoLog:
    def test_rollback_restores_in_reverse(self):
        memory = MainMemory()
        memory.write(0x10, 1)
        log = UndoLog()
        log.record(memory, 0x10, 8)
        memory.write(0x10, 2)
        log.record(memory, 0x10, 8)
        memory.write(0x10, 3)
        log.rollback(memory)
        assert memory.read(0x10) == 1
        assert len(log) == 0

    def test_commit_discards(self):
        memory = MainMemory()
        memory.write(0x10, 1)
        log = UndoLog()
        log.record(memory, 0x10, 8)
        memory.write(0x10, 2)
        log.commit()
        log.rollback(memory)  # nothing left to roll back
        assert memory.read(0x10) == 2

    def test_subword_restore(self):
        memory = MainMemory()
        memory.write(0x20, 0x1122334455667788, 8)
        log = UndoLog()
        log.record(memory, 0x22, 2)
        memory.write(0x22, 0, 2)
        log.rollback(memory)
        assert memory.read(0x20, 8) == 0x1122334455667788
