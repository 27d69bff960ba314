"""RETCON engine: Figure 6 flowchart paths, ALU/branch tracking rules,
pre-commit validation and repair (Figure 7), and the complete worked
example of Figure 8."""

import pytest

from repro.core.engine import (
    CapacityAbort,
    ConstraintViolation,
    RetconEngine,
)
from repro.core.symvalue import SymValue
from repro.isa.instructions import Cond
from repro.mem.address import block_base


def block_with(block: int, **words) -> bytes:
    raw = bytearray(64)
    for key, value in words.items():
        idx = int(key.lstrip("w"))
        raw[8 * idx : 8 * idx + 8] = (value % (1 << 64)).to_bytes(
            8, "little"
        )
    return bytes(raw)


@pytest.fixture
def engine():
    eng = RetconEngine()
    eng.begin_txn()
    return eng


def track(engine, block, **words):
    engine.start_tracking(block, block_with(block, **words))
    return block_base(block)


class TestLoadPaths:
    def test_initial_symbolic_load(self, engine):
        base = track(engine, 4, w0=5)
        value, sym = engine.load(base, 8)
        assert value == 5
        assert sym == SymValue(base, 8, 0)

    def test_ssb_bypass_copies_symbolic_value(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 1)
        engine.store_buffered(base + 16, 8, 6, sym, lambda a, s: bytes(s))
        value, got = engine.load(base + 16, 8)
        assert value == 6
        assert got == sym  # copied, not re-rooted (§4.3 flattening)

    def test_lazy_vb_mode_pins_instead_of_tracking(self):
        engine = RetconEngine(symbolic_arithmetic=False)
        engine.begin_txn()
        base = track(engine, 4, w0=5)
        value, sym = engine.load(base, 8)
        assert value == 5
        assert sym is None
        assert engine.ivb.get(4).equality_words == {0}

    def test_partial_overlap_composes_and_pins(self, engine):
        base = track(engine, 4, w0=0x1111111111111111)
        # A 4-byte store overlapping the 8-byte load.
        engine.store_buffered(
            base, 4, 0x22222222, None, lambda a, s: bytes(s)
        )
        value, sym = engine.load(base, 8)
        assert sym is None
        assert value == 0x1111111122222222
        # The bytes read from the initial value are pinned.
        assert 0 in engine.ivb.get(4).equality_words

    def test_untracked_load_with_ssb_hit(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 2)
        engine.store_buffered(0x5000, 8, 7, sym, lambda a, s: bytes(s))
        value, got = engine.load(0x5000, 8, b"\x00" * 8)
        assert value == 7 and got == sym

    def test_untracked_load_without_ssb_misses(self, engine):
        # The SSB holds nothing there: the memory bytes read through.
        assert engine.load(0x6000, 8, b"\x09" + b"\x00" * 7) == (9, None)


class TestStorePaths:
    def test_exact_overwrite_replaces_entry(self, engine):
        base = track(engine, 4, w0=5)
        engine.store_buffered(base, 8, 6, None, lambda a, s: bytes(s))
        engine.store_buffered(base, 8, 9, None, lambda a, s: bytes(s))
        assert len(engine.ssb) == 1
        assert engine.ssb.lookup(base, 8).value == 9

    def test_partial_overlap_merges_concretely(self, engine):
        base = track(engine, 4, w0=0)
        sym = SymValue(base, 8, 0)
        engine.store_buffered(
            base + 16, 8, 0x1111111111111111, sym, lambda a, s: bytes(s)
        )
        engine.store_buffered(
            base + 20, 4, 0x22222222, None,
            lambda a, s: engine.ivb.get(4).read_initial_bytes(a, s),
        )
        # The symbolic entry was demoted: its root is pinned.
        assert 0 in engine.ivb.get(4).equality_words
        value, got = engine.load(base + 16, 8)
        assert value == 0x2222222211111111
        # Entries remain pairwise non-overlapping.
        entries = sorted(e.addr for e in engine.ssb.entries())
        for first, second in zip(entries, entries[1:]):
            assert first + 8 <= second

    def test_capacity_abort(self):
        engine = RetconEngine(ssb_capacity=2)
        engine.begin_txn()
        track(engine, 4, w0=0)
        base = block_base(4)
        engine.store_buffered(base, 8, 1, None, lambda a, s: bytes(s))
        engine.store_buffered(base + 8, 8, 2, None, lambda a, s: bytes(s))
        with pytest.raises(CapacityAbort):
            engine.store_buffered(
                base + 16, 8, 3, None, lambda a, s: bytes(s)
            )

    def test_eager_store_invalidates_exact_ssb_entry(self, engine):
        base = track(engine, 4, w0=5)
        engine.store_buffered(0x5000, 8, 7, None, lambda a, s: bytes(s))
        overlaps = engine.invalidate_ssb(0x5000, 8)
        assert overlaps == []
        assert len(engine.ssb) == 0


class TestAluRules:
    def test_add_constant_folds_into_delta(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 0)
        engine.alu("add", 2, sym, None, 5, 7)
        assert engine.reg_sym(2) == SymValue(base, 8, 7)

    def test_sub_constant(self, engine):
        base = track(engine, 4, w0=5)
        engine.alu("sub", 2, SymValue(base, 8, 0), None, 5, 3)
        assert engine.reg_sym(2) == SymValue(base, 8, -3)

    def test_add_symbolic_rhs_commutes(self, engine):
        base = track(engine, 4, w0=5)
        engine.alu("add", 2, None, SymValue(base, 8, 0), 10, 5)
        assert engine.reg_sym(2) == SymValue(base, 8, 10)

    def test_sub_from_constant_pins(self, engine):
        base = track(engine, 4, w0=5)
        engine.alu("sub", 2, None, SymValue(base, 8, 0), 10, 5)
        assert engine.reg_sym(2) is None
        assert 0 in engine.ivb.get(4).equality_words

    def test_two_symbolic_inputs_pin_second(self, engine):
        base_a = track(engine, 4, w0=5)
        base_b = track(engine, 5, w0=9)
        engine.alu(
            "add", 2,
            SymValue(base_a, 8, 0), SymValue(base_b, 8, 0), 5, 9,
        )
        assert engine.reg_sym(2) == SymValue(base_a, 8, 9)
        assert 0 in engine.ivb.get(5).equality_words
        assert not engine.ivb.get(4).equality_words

    def test_untrackable_op_pins_all(self, engine):
        base = track(engine, 4, w0=5)
        engine.alu("mul", 2, SymValue(base, 8, 0), None, 5, 2)
        assert engine.reg_sym(2) is None
        assert 0 in engine.ivb.get(4).equality_words

    def test_concrete_inputs_clear_destination(self, engine):
        engine.set_reg_sym(2, SymValue(999, 8, 0))
        track(engine, 4, w0=5)
        engine.alu("add", 2, None, None, 1, 2)
        assert engine.reg_sym(2) is None


class TestBranchConstraints:
    def test_taken_branch_records_bound(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 1)
        # br (sym > 5) taken:  [A]+1 > 5  =>  [A] > 4
        engine.on_branch(Cond.GT, sym, None, 6, 5, taken=True)
        constraint = engine.constraints.get((base, 8))
        assert constraint is not None
        assert not constraint.satisfied_by(4)
        assert constraint.satisfied_by(5)

    def test_not_taken_branch_records_negation(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 1)
        engine.on_branch(Cond.GT, sym, None, 6, 10, taken=False)
        constraint = engine.constraints.get((base, 8))
        # not([A]+1 > 10)  =>  [A] <= 9
        assert constraint.satisfied_by(9)
        assert not constraint.satisfied_by(10)

    def test_constraint_buffer_overflow_demotes_to_equality(self):
        engine = RetconEngine(constraint_capacity=1, ivb_capacity=None)
        engine.begin_txn()
        base_a = track(engine, 4, w0=5)
        base_b = track(engine, 5, w0=5)
        engine.on_branch(
            Cond.GT, SymValue(base_a, 8, 0), None, 5, 1, taken=True
        )
        engine.on_branch(
            Cond.GT, SymValue(base_b, 8, 0), None, 5, 1, taken=True
        )
        assert len(engine.constraints) == 1
        assert 0 in engine.ivb.get(5).equality_words

    def test_cmp_bcc_symbolic(self, engine):
        base = track(engine, 4, w0=5)
        engine.on_cmp(5, 3, SymValue(base, 8, 0), None)
        engine.on_bcc(Cond.GT, taken=True)
        constraint = engine.constraints.get((base, 8))
        assert constraint.satisfied_by(4)
        assert not constraint.satisfied_by(3)

    def test_cmp_reversed_operands(self, engine):
        base = track(engine, 4, w0=5)
        # cmp 3, sym ; bcc LT taken:  3 < [A]  =>  [A] > 3
        engine.on_cmp(3, 5, None, SymValue(base, 8, 0))
        engine.on_bcc(Cond.LT, taken=True)
        constraint = engine.constraints.get((base, 8))
        assert constraint.satisfied_by(4)
        assert not constraint.satisfied_by(3)

    def test_concrete_branch_records_nothing(self, engine):
        track(engine, 4, w0=5)
        engine.on_branch(Cond.GT, None, None, 6, 5, taken=True)
        assert len(engine.constraints) == 0


class TestValidateAndRepair:
    def test_unchanged_blocks_validate_trivially(self, engine):
        track(engine, 4, w0=5)
        engine.validate({})  # nothing lost

    def test_equality_violation(self, engine):
        base = track(engine, 4, w0=5)
        engine.equality_constrain((base, 8))
        engine.on_block_lost(4)
        with pytest.raises(ConstraintViolation):
            engine.validate({4: block_with(4, w0=6)})

    def test_interval_checked_against_fresh_value(self, engine):
        base = track(engine, 4, w0=5)
        engine.on_branch(
            Cond.LT, SymValue(base, 8, 0), None, 5, 7, taken=True
        )
        engine.on_block_lost(4)
        engine.validate({4: block_with(4, w0=6)})  # 6 < 7: fine
        with pytest.raises(ConstraintViolation):
            engine.validate({4: block_with(4, w0=7)})

    def test_commit_plan_evaluates_against_fresh_roots(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 2)
        engine.store_buffered(base, 8, 7, sym, lambda a, s: bytes(s))
        engine.set_reg_sym(1, sym)
        engine.on_block_lost(4)
        current = {4: block_with(4, w0=10)}
        engine.validate(current)
        plan = engine.commit_plan(current)
        assert (base, 8, 12) in plan.stores
        assert (1, 12) in plan.registers

    def test_reacquire_plan_marks_written_blocks(self, engine):
        base = track(engine, 4, w0=5)
        engine.store_buffered(base, 8, 7, None, lambda a, s: bytes(s))
        engine.on_block_lost(4)
        engine.mark_written_blocks()
        assert engine.reacquire_plan() == [(4, True)]

    def test_sample_counts(self, engine):
        base = track(engine, 4, w0=5)
        sym = SymValue(base, 8, 1)
        engine.set_reg_sym(1, sym)
        engine.store_buffered(base, 8, 6, sym, lambda a, s: bytes(s))
        engine.on_branch(Cond.GT, sym, None, 6, 0, taken=True)
        engine.on_block_lost(4)
        sample = engine.sample(commit_cycles=42)
        assert sample.blocks_lost == 1
        assert sample.blocks_tracked == 1
        assert sample.symbolic_registers == 1
        assert sample.private_stores == 1
        assert sample.constraint_addresses == 1
        assert sample.commit_cycles == 42
