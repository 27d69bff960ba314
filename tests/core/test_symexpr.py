"""General symbolic expressions, and their agreement with the
optimized (root, delta) representation on trackable programs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import ConstraintViolation, RetconEngine
from repro.core.symexpr import (
    Add,
    Const,
    Loc,
    Neg,
    Scale,
    as_sym_value,
    simplify,
)
from repro.core.symvalue import SymValue
from repro.isa.instructions import Cond, TRACKABLE_OPS, apply_op
from repro.mem.address import block_base

A = Loc(0x100)
B = Loc(0x200)


class TestEvaluation:
    def test_constant(self):
        assert Const(5).evaluate({}) == 5

    def test_location(self):
        assert A.evaluate({A.root: 9}) == 9

    def test_composite(self):
        expr = (A + 3) - B
        env = {A.root: 10, B.root: 4}
        assert expr.evaluate(env) == 9

    def test_negation_and_scale(self):
        expr = Scale(Neg(A), 3)
        assert expr.evaluate({A.root: 2}) == -6

    def test_roots(self):
        assert (A + B + 1).roots() == {A.root, B.root}


class TestSimplify:
    def test_constant_folding(self):
        expr = Const(2) + Const(3)
        assert simplify(expr) == Const(5)

    def test_cancellation(self):
        assert simplify(A - A) == Const(0)

    def test_preserves_semantics(self):
        expr = (A + 2) + (Neg(B) + 3) + A
        env = {A.root: 7, B.root: 5}
        assert simplify(expr).evaluate(env) == expr.evaluate(env)


class TestCollapse:
    def test_root_plus_delta_collapses(self):
        assert as_sym_value(A + 2 - 5) == SymValue(0x100, 8, -3)

    def test_plain_root(self):
        assert as_sym_value(A) == SymValue(0x100, 8, 0)

    def test_two_roots_do_not_collapse(self):
        assert as_sym_value(A + B) is None

    def test_negated_root_does_not_collapse(self):
        assert as_sym_value(Const(5) - A) is None

    def test_scaled_root_does_not_collapse(self):
        assert as_sym_value(Scale(A, 2)) is None

    def test_cancelled_scale_collapses(self):
        # 2*[A] - [A] == [A]: linearization recovers the trackable form.
        assert as_sym_value(Scale(A, 2) - A) == SymValue(0x100, 8, 0)


# -- property: the optimized form agrees with the general algorithm -----
_trackable = st.deferred(
    lambda: st.one_of(
        st.just(A),
        st.tuples(_trackable, st.integers(-10, 10)).map(
            lambda t: t[0] + t[1]
        ),
        st.tuples(_trackable, st.integers(-10, 10)).map(
            lambda t: t[0] - t[1]
        ),
    )
)


@given(expr=_trackable, root_value=st.integers(-1000, 1000))
def test_trackable_programs_collapse_exactly(expr, root_value):
    """Any chain of constant additions/subtractions applied to one
    root — the §4.4-trackable computations — collapses to a SymValue
    whose evaluation matches the general expression everywhere."""
    sym = as_sym_value(expr)
    assert sym is not None
    env = {A.root: root_value}
    assert sym.evaluate(root_value) == expr.evaluate(env)


@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    consts=st.lists(st.integers(-10, 10), min_size=1, max_size=5),
    values=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_simplify_is_semantics_preserving(coeffs, consts, values):
    expr = Const(0)
    for i, (coeff, const) in enumerate(zip(coeffs, consts)):
        term = Scale(A if i % 2 == 0 else B, coeff)
        expr = Add(expr, Add(term, Const(const)))
    env = {A.root: values[0], B.root: values[1]}
    assert simplify(expr).evaluate(env) == expr.evaluate(env)


# -- edge cases at the boundary of the symbolic layer -------------------
def _block_with(value: int, word: int = 0) -> bytes:
    raw = bytearray(64)
    raw[8 * word : 8 * word + 8] = (value % (1 << 64)).to_bytes(
        8, "little"
    )
    return bytes(raw)


class TestDivisionSemantics:
    """Division is never symbolically trackable; its concrete
    semantics (shared by the core and the replay oracle through
    apply_op) truncate toward zero with a quiet divide-by-zero."""

    def test_division_is_untrackable(self):
        assert "div" not in TRACKABLE_OPS
        # and there is no Div expression node to collapse: any use of
        # a symbolic input in a division must pin it instead.

    @pytest.mark.parametrize(
        "lhs,rhs,expected",
        [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (1, 3, 0)],
    )
    def test_truncates_toward_zero(self, lhs, rhs, expected):
        assert apply_op("div", lhs, rhs) == expected
        # Python's floor division disagrees for mixed signs — the
        # hardware semantics must not silently inherit it.
        if (lhs < 0) != (rhs < 0) and lhs % rhs:
            assert lhs // rhs != expected

    def test_divide_by_zero_is_quiet_zero(self):
        assert apply_op("div", 17, 0) == 0
        assert apply_op("div", -17, 0) == 0

    @given(lhs=st.integers(-1000, 1000), rhs=st.integers(-50, 50))
    def test_quotient_remainder_identity(self, lhs, rhs):
        quotient = apply_op("div", lhs, rhs)
        if rhs == 0:
            assert quotient == 0
        else:
            remainder = lhs - quotient * rhs
            assert abs(remainder) < abs(rhs)
            assert remainder == 0 or (remainder < 0) == (lhs < 0)

    def test_engine_pins_symbolic_division_input(self):
        engine = RetconEngine()
        engine.begin_txn()
        engine.start_tracking(4, _block_with(10))
        base = block_base(4)
        engine.alu("div", 2, SymValue(base, 8, 0), None, 10, 2)
        assert engine.reg_sym(2) is None
        assert 0 in engine.ivb.get(4).equality_words


class TestMixedWidthLoads:
    """Loads of different widths from the same address are distinct
    roots: a 4-byte observation says nothing about the upper half of
    the 8-byte word."""

    def test_widths_are_distinct_roots(self):
        narrow = Loc(0x100, 4)
        wide = Loc(0x100, 8)
        assert narrow.root != wide.root
        assert (narrow + wide).roots() == {(0x100, 4), (0x100, 8)}
        # two distinct roots -> not collapsible
        assert as_sym_value(narrow + wide) is None
        # and simplify must not merge them into one coefficient
        assert as_sym_value(simplify(narrow + wide)) is None

    def test_collapse_preserves_width(self):
        assert as_sym_value(Loc(0x100, 4) + 3) == SymValue(0x100, 4, 3)

    def test_same_width_same_addr_cancels(self):
        assert simplify(Loc(0x100, 4) - Loc(0x100, 4)) == Const(0)

    def test_engine_tracks_narrow_load_at_its_width(self):
        engine = RetconEngine()
        engine.begin_txn()
        engine.start_tracking(4, _block_with(5))
        base = block_base(4)
        value, sym = engine.load(base, 4)
        assert value == 5
        assert sym == SymValue(base, 4, 0)


class TestConstraintReEvaluation:
    """Constraints are evaluated against the *freshest* reacquired
    value: losing a block repeatedly re-checks, it does not consume
    or staleness-pin the constraint."""

    def setup_engine(self):
        engine = RetconEngine()
        engine.begin_txn()
        engine.start_tracking(4, _block_with(5))
        base = block_base(4)
        # br (sym < 7) taken  =>  [A] < 7 must hold at commit
        engine.on_branch(
            Cond.LT, SymValue(base, 8, 0), None, 5, 7, taken=True
        )
        return engine, base

    def test_revalidation_after_repeated_loss(self):
        engine, _base = self.setup_engine()
        engine.on_block_lost(4)
        engine.validate({4: _block_with(6)})  # 6 < 7: still fine
        engine.on_block_lost(4)
        engine.validate({4: _block_with(3)})  # re-checked, not consumed
        engine.on_block_lost(4)
        with pytest.raises(ConstraintViolation):
            engine.validate({4: _block_with(7)})

    def test_violation_depends_only_on_latest_value(self):
        engine, _base = self.setup_engine()
        engine.on_block_lost(4)
        with pytest.raises(ConstraintViolation):
            engine.validate({4: _block_with(100)})
        # a later reacquisition with a satisfying value validates
        engine.validate({4: _block_with(0)})

    def test_commit_plan_uses_latest_reacquired_value(self):
        engine, base = self.setup_engine()
        engine.set_reg_sym(1, SymValue(base, 8, 2))
        engine.on_block_lost(4)
        engine.validate({4: _block_with(1)})
        engine.on_block_lost(4)
        current = {4: _block_with(6)}
        engine.validate(current)
        plan = engine.commit_plan(current)
        assert (1, 8) in plan.registers  # 6 + 2, not 1 + 2 or 5 + 2
