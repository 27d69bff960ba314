"""Interval constraints: algebra, soundness, buffer capacity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constraints import (
    ConstraintBuffer,
    ConstraintBufferFull,
    Interval,
    constraint_from_branch,
)
from repro.core.symvalue import SymValue
from repro.isa.instructions import Cond, evaluate_cond


class TestInterval:
    def test_unbounded_contains_everything(self):
        interval = Interval()
        assert interval.contains(-(10**12))
        assert interval.contains(10**12)

    def test_bounds(self):
        interval = Interval()
        interval.add(Cond.GT, 4, observed=10)
        interval.add(Cond.LE, 20, observed=10)
        assert not interval.contains(4)
        assert interval.contains(5)
        assert interval.contains(20)
        assert not interval.contains(21)

    def test_eq_pins_single_point(self):
        interval = Interval()
        interval.add(Cond.EQ, 7, observed=7)
        assert interval.contains(7)
        assert not interval.contains(6)
        assert not interval.contains(8)

    def test_ne_folds_toward_observed_side(self):
        above = Interval()
        above.add(Cond.NE, 5, observed=9)
        assert above.contains(9) and not above.contains(5)
        assert not above.contains(4)  # precision loss, but sound
        below = Interval()
        below.add(Cond.NE, 5, observed=2)
        assert below.contains(2) and not below.contains(5)

    def test_ne_outside_interval_is_noop(self):
        interval = Interval()
        interval.add(Cond.LT, 5, observed=3)
        interval.add(Cond.NE, 100, observed=3)
        assert interval.contains(4)

    def test_empty_detection(self):
        interval = Interval()
        interval.add(Cond.GT, 10, observed=11)
        interval.add(Cond.LT, 5, observed=11)
        assert not any(interval.contains(v) for v in range(-20, 40))

    @given(
        conds=st.lists(
            st.tuples(
                st.sampled_from(list(Cond)),
                st.integers(-50, 50),
            ),
            max_size=8,
        ),
        probe=st.integers(-60, 60),
        observed=st.integers(-50, 50),
    )
    def test_soundness_property(self, conds, probe, observed):
        """The folded interval never accepts a value that any recorded
        constraint would reject (it may conservatively reject more)."""
        # Only record constraints the observed execution satisfied,
        # as the engine does.
        interval = Interval()
        recorded = []
        for cond, bound in conds:
            if evaluate_cond(cond, observed, bound):
                interval.add(cond, bound, observed)
                recorded.append((cond, bound))
        assert interval.contains(observed)
        if interval.contains(probe):
            for cond, bound in recorded:
                assert evaluate_cond(cond, probe, bound)


class TestConstraintFromBranch:
    def test_delta_is_subtracted(self):
        sym = SymValue(0x100, 8, delta=1)
        root, cond, bound = constraint_from_branch(Cond.GT, sym, 5)
        assert root == (0x100, 8)
        assert cond is Cond.GT
        assert bound == 4  # [A]+1 > 5  =>  [A] > 4  (paper §4.2 example)

    def test_reversed_operands_swap_condition(self):
        sym = SymValue(0x100, 8, delta=0)
        _, cond, bound = constraint_from_branch(
            Cond.LT, sym, 10, reversed_operands=True
        )
        # 10 < [A]  =>  [A] > 10
        assert cond is Cond.GT
        assert bound == 10


class TestConstraintBuffer:
    def test_accumulates_per_root(self):
        buffer = ConstraintBuffer(capacity=4)
        root = (0x100, 8)
        buffer.add_bound(root, Cond.GT, 0, observed=5)
        buffer.add_bound(root, Cond.LT, 7, observed=5)
        assert len(buffer) == 1
        assert buffer.check({root: 5}) is None
        assert buffer.check({root: 7}) == root

    def test_capacity_counts_distinct_roots(self):
        buffer = ConstraintBuffer(capacity=2)
        buffer.add_bound((0x100, 8), Cond.GT, 0, observed=1)
        buffer.add_bound((0x108, 8), Cond.GT, 0, observed=1)
        buffer.add_bound((0x100, 8), Cond.LT, 9, observed=1)  # same root
        with pytest.raises(ConstraintBufferFull):
            buffer.add_bound((0x110, 8), Cond.GT, 0, observed=1)

    def test_unlimited_capacity(self):
        buffer = ConstraintBuffer(capacity=None)
        for i in range(100):
            buffer.add_bound((8 * i, 8), Cond.GE, 0, observed=1)
        assert len(buffer) == 100

    def test_clear(self):
        buffer = ConstraintBuffer()
        buffer.add_bound((0, 8), Cond.GE, 0, observed=1)
        buffer.clear()
        assert len(buffer) == 0
