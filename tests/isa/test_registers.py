"""Register file."""

from repro.isa.instructions import Reg
from repro.isa.registers import NUM_REGS, RegisterFile


class TestRegisterFile:
    def test_starts_zeroed(self):
        regs = RegisterFile()
        assert all(regs.read(Reg(i)) == 0 for i in range(NUM_REGS))

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(Reg(3), -7)
        assert regs.read(Reg(3)) == -7

    def test_snapshot_restore(self):
        regs = RegisterFile()
        regs.write(Reg(1), 10)
        snapshot = regs.snapshot()
        regs.write(Reg(1), 99)
        regs.write(Reg(2), 5)
        regs.restore(snapshot)
        assert regs.read(Reg(1)) == 10
        assert regs.read(Reg(2)) == 0

    def test_snapshot_is_a_copy(self):
        regs = RegisterFile()
        snapshot = regs.snapshot()
        regs.write(Reg(0), 1)
        assert snapshot[0] == 0

    def test_reg_is_int(self):
        assert Reg(7) == 7
        assert repr(Reg(7)) == "r7"
