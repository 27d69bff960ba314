"""Assembler and program construction."""

import gc
import weakref

import pytest

from repro.isa import program as program_module
from repro.isa.instructions import (
    Bcc,
    Branch,
    Cmp,
    Cond,
    Imm,
    Jump,
    Load,
    Movi,
    Nop,
    Reg,
    Store,
)
from repro.isa.program import Assembler, AssemblerError
from repro.isa.registers import R1, R2


class TestAssembler:
    def test_builds_instruction_sequence(self):
        program = (
            Assembler()
            .load(R1, 0x100)
            .addi(R1, R1, 1)
            .store(R1, 0x100)
            .build()
        )
        assert len(program) == 3
        assert isinstance(program.instructions[0], Load)
        assert isinstance(program.instructions[2], Store)

    def test_labels_resolve_forward_and_backward(self):
        asm = Assembler()
        asm.mark("top")
        asm.br(Cond.EQ, R1, 0, "bottom")
        asm.jump("top")
        asm.mark("bottom")
        program = asm.build()
        branch, jump = program.instructions
        assert branch.target == 2  # "bottom": one past the last slot
        assert jump.target == 0    # "top"

    def test_duplicate_label_rejected(self):
        asm = Assembler().mark("x")
        with pytest.raises(AssemblerError):
            asm.mark("x")

    def test_undefined_label_rejected_at_build(self):
        asm = Assembler().jump("nowhere")
        with pytest.raises(AssemblerError, match="nowhere"):
            asm.build()

    def test_fresh_labels_are_unique(self):
        asm = Assembler()
        labels = {asm.fresh_label() for _ in range(100)}
        assert len(labels) == 100

    def test_int_operands_coerce_to_immediates(self):
        program = Assembler().store(7, 0x40).build()
        store = program.instructions[0]
        assert store.src == Imm(7)

    def test_register_operands_pass_through(self):
        program = Assembler().store(R2, 0x40).build()
        assert program.instructions[0].src == R2
        assert isinstance(program.instructions[0].src, Reg)

    def test_zero_cycle_nop_elided(self):
        program = Assembler().nop(0).nop(5).build()
        assert len(program) == 1
        assert program.instructions[0] == Nop(cycles=5)

    def test_branch_records_operands(self):
        program = (
            Assembler().mark("t").br(Cond.GT, R1, 10, "t").build()
        )
        branch = program.instructions[0]
        assert isinstance(branch, Branch)
        assert branch.cond is Cond.GT
        assert branch.src2 == Imm(10)

    def test_chaining_returns_self(self):
        asm = Assembler()
        assert asm.nop(1) is asm
        assert asm.movi(R1, 3) is asm


class TestInterning:
    """Every emit goes through one pool: a static instruction exists
    once however many programs hold it."""

    def test_equal_emits_return_one_object(self):
        def build():
            asm = Assembler()
            asm.load(R1, 0x100).addi(R1, R1, 1).store(R1, 0x100)
            asm.mark("t").br(Cond.GT, R1, 10, "t").nop(3).halt()
            return asm.build()

        first, second = build(), build()
        assert first.instructions == second.instructions
        assert all(
            a is b for a, b in zip(first.instructions, second.instructions)
        )

    def test_reg_int_and_imm_operands_stay_distinct(self):
        by_reg = Assembler().movi(R1, 5).build().instructions[0]
        by_int = Assembler().movi(1, 5).build().instructions[0]
        by_bool = Assembler().movi(R1, True).build().instructions[0]
        assert by_reg == by_int  # Reg(1) == 1: dataclass equality holds
        assert by_reg is not by_int
        assert isinstance(by_reg.rd, Reg) and not isinstance(by_int.rd, Reg)
        assert by_bool is not Assembler().movi(R1, 1).build().instructions[0]
        assert repr(by_reg) == repr(Movi(R1, 5))
        assert repr(by_int) == repr(Movi(1, 5))

        cmp_reg = Assembler().cmp(R1, R2).build().instructions[0]
        cmp_int = Assembler().cmp(R1, 2).build().instructions[0]
        cmp_imm = Assembler().cmp(R1, Imm(2)).build().instructions[0]
        assert cmp_reg == Cmp(R1, R2) and cmp_int == Cmp(R1, Imm(2))
        assert cmp_reg is not cmp_int
        # a bare int is coerced to Imm before the lookup
        assert cmp_int is cmp_imm

    def test_no_label_is_interned(self):
        """A branch enters the pool only at build, with its label
        resolved to an index."""
        asm = Assembler()
        out = asm.fresh_label("out")
        asm.br(Cond.EQ, R1, 0x5EED, out).bcc(Cond.NE, out).jump(out)
        program = asm.mark(out).build()
        assert [inst.target for inst in program] == [3, 3, 3]
        assert not any(
            isinstance(arg, str)
            for key in list(program_module._POOL.keys())
            if key[0] in (Branch, Bcc, Jump)
            for arg in key
        )

    def test_pool_forgets_instructions_of_dropped_programs(self):
        gc.collect()
        before = len(program_module._POOL)
        asm = Assembler()
        for n in range(50):
            asm.movi(R2, 0x5EED_0000 + n)
        program = asm.build()
        refs = [weakref.ref(inst) for inst in program.instructions]
        assert len(program_module._POOL) == before + 50
        del asm, program
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(program_module._POOL) <= before
