"""The reference replay interpreter: architectural semantics over a
read function plus a private store overlay."""

import pytest

from repro.check.replay import ReplayLimitExceeded, replay_program
from repro.isa.instructions import (
    Bcc,
    Branch,
    Cmp,
    Cond,
    Halt,
    Imm,
    Instruction,
    Jump,
    Load,
    Mov,
    Movi,
    Nop,
    Op,
    Store,
)
from repro.isa.program import Assembler, Program
from repro.isa.registers import NUM_REGS, R1, R2, R3, R4


def make_memory(contents=None):
    """A byte-addressed dict plus the ReadFn over it."""
    mem = dict(contents or {})

    def read_fn(addr, size):
        return bytes(mem.get(addr + i, 0) for i in range(size))

    return mem, read_fn


def regs0():
    return [0] * NUM_REGS


class TestStraightLine:
    def test_arithmetic_and_store(self):
        asm = Assembler()
        asm.movi(R1, 5)
        asm.addi(R2, R1, 3)
        asm.store(R2, 0x100)
        asm.halt()
        _, read_fn = make_memory()
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R2] == 8
        assert result.read_overlay(0x100, 8) == 8
        assert result.pc_trace == [0, 1, 2, 3]
        assert result.steps == 4

    def test_load_reads_underlying_memory(self):
        asm = Assembler()
        asm.load(R1, 0x200)
        asm.halt()
        value = (42).to_bytes(8, "little")
        _, read_fn = make_memory(
            {0x200 + i: b for i, b in enumerate(value)}
        )
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R1] == 42

    def test_store_to_load_forwarding(self):
        # Loads see the replay's own stores, not the stale memory.
        asm = Assembler()
        asm.store(7, 0x100)
        asm.load(R1, 0x100)
        asm.halt()
        _, read_fn = make_memory({0x100: 99})
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R1] == 7

    def test_stores_never_reach_memory(self):
        asm = Assembler()
        asm.store(7, 0x100)
        asm.halt()
        mem, read_fn = make_memory()
        replay_program(asm.build(), regs0(), read_fn)
        assert mem == {}

    def test_partial_overlay_merges_with_memory(self):
        # A 4-byte store under an 8-byte load: low half from the
        # overlay, high half from memory.
        asm = Assembler()
        asm.store(0x22222222, 0x100, size=4)
        asm.load(R1, 0x100)
        asm.halt()
        underlying = (0x1111111111111111).to_bytes(8, "little")
        _, read_fn = make_memory(
            {0x100 + i: b for i, b in enumerate(underlying)}
        )
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R1] == 0x1111111122222222
        # read_overlay only answers for fully-covered ranges.
        assert result.read_overlay(0x100, 4) == 0x22222222
        assert result.read_overlay(0x100, 8) is None

    def test_signed_round_trip(self):
        asm = Assembler()
        asm.store(-1, 0x100)
        asm.load(R1, 0x100)
        asm.halt()
        _, read_fn = make_memory()
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R1] == -1
        assert result.read_overlay(0x100, 8) == -1


class TestDivision:
    """The replay shares apply_op with the core, so hardware division
    semantics (truncation toward zero, quiet divide-by-zero) must hold
    under replay too."""

    @pytest.mark.parametrize(
        "lhs,rhs,expected",
        [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3)],
    )
    def test_truncates_toward_zero(self, lhs, rhs, expected):
        asm = Assembler()
        asm.movi(R1, lhs)
        asm.div(R2, R1, rhs)
        asm.halt()
        _, read_fn = make_memory()
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R2] == expected

    def test_divide_by_zero_is_quiet_zero(self):
        asm = Assembler()
        asm.movi(R1, 17)
        asm.div(R2, R1, 0)
        asm.halt()
        _, read_fn = make_memory()
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R2] == 0


class TestControlFlow:
    def build_branchy(self, threshold):
        asm = Assembler()
        big = asm.fresh_label("big")
        end = asm.fresh_label("end")
        asm.load(R1, 0x100)
        asm.br(Cond.GT, R1, threshold, big)
        asm.store(111, 0x200)
        asm.jump(end)
        asm.mark(big)
        asm.store(222, 0x208)
        asm.mark(end)
        asm.halt()
        return asm.build()

    def test_branch_taken_path(self):
        value = (10).to_bytes(8, "little")
        _, read_fn = make_memory(
            {0x100 + i: b for i, b in enumerate(value)}
        )
        result = replay_program(self.build_branchy(5), regs0(), read_fn)
        assert result.read_overlay(0x208, 8) == 222
        assert result.read_overlay(0x200, 8) is None

    def test_branch_fallthrough_path(self):
        _, read_fn = make_memory()  # [0x100] = 0, not > 5
        result = replay_program(self.build_branchy(5), regs0(), read_fn)
        assert result.read_overlay(0x200, 8) == 111
        assert result.read_overlay(0x208, 8) is None

    def test_cmp_bcc(self):
        asm = Assembler()
        less = asm.fresh_label("less")
        asm.movi(R1, 3)
        asm.cmp(R1, 5)
        asm.bcc(Cond.LT, less)
        asm.movi(R3, 1)
        asm.mark(less)
        asm.halt()
        _, read_fn = make_memory()
        result = replay_program(asm.build(), regs0(), read_fn)
        assert result.regs[R3] == 0  # the movi was skipped

    def test_bcc_without_cmp_is_an_error(self):
        asm = Assembler()
        end = asm.fresh_label("end")
        asm.bcc(Cond.EQ, end)
        asm.mark(end)
        asm.halt()
        _, read_fn = make_memory()
        with pytest.raises(RuntimeError):
            replay_program(asm.build(), regs0(), read_fn)

    def test_nontermination_raises_limit(self):
        asm = Assembler()
        top = asm.fresh_label("top")
        asm.mark(top)
        asm.jump(top)
        _, read_fn = make_memory()
        with pytest.raises(ReplayLimitExceeded):
            replay_program(
                asm.build(), regs0(), read_fn, max_steps=100
            )


class TestEveryInstructionClass:
    """The replay dispatches on the exact instruction class, so each
    concrete :class:`Instruction` subclass needs a case here: a new one
    fails this test before it fails the oracle at run time."""

    EXAMPLES = {
        Movi: Movi(R1, 5),
        Mov: Mov(R2, R1),
        Op: Op("add", R3, R2, Imm(1)),
        Store: Store(R3, 0x100),
        Load: Load(R4, 0x100),
        Cmp: Cmp(R4, Imm(6)),
        Bcc: Bcc(Cond.EQ, 7),
        Branch: Branch(Cond.NE, R4, Imm(0), 8),
        Jump: Jump(9),
        Nop: Nop(),
        Halt: Halt(),
    }

    @staticmethod
    def concrete_subclasses(cls=Instruction):
        found = set()
        for sub in cls.__subclasses__():
            found.add(sub)
            found |= TestEveryInstructionClass.concrete_subclasses(sub)
        return found

    def test_every_class_has_an_example(self):
        assert set(self.EXAMPLES) == self.concrete_subclasses()

    def test_one_program_replays_every_class(self):
        # Every taken branch lands on the next instruction, so each
        # example executes exactly once.
        instructions = tuple(self.EXAMPLES.values())
        _, read_fn = make_memory()
        result = replay_program(Program(instructions), regs0(), read_fn)
        assert result.pc_trace == list(range(len(instructions)))
        assert result.regs[R4] == 6
        assert result.read_overlay(0x100, 8) == 6

    def test_an_unknown_instruction_is_an_error(self):
        _, read_fn = make_memory()
        with pytest.raises(TypeError, match="unknown instruction"):
            replay_program(Program((object(),)), regs0(), read_fn)
