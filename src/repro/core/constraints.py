"""Symbolic control-flow constraints as intervals.

Paper §4.4: "Any number of constraints with (≤, <, =, >, ≥) can be
represented precisely by the most restrictive interval bounding the
symbolic value.  Any number of not-equal-to constraints can be
represented similarly ... with some loss of precision."

A branch whose source register holds symbolic value ``[A] + d`` and is
resolved against a constant ``k`` yields the constraint
``[A] + d  cond  k``, i.e. ``[A] cond (k - d)`` — recorded as an
interval bound on root ``A``.  At commit, the freshly reacquired value
of ``A`` must satisfy the interval or the transaction aborts
(Figure 7, step 1).

Not-equal-to constraints are folded into the interval by keeping the
side of the excluded point that contains the value observed during
execution; this is sound (any value accepted by the folded interval is
accepted by the original constraint set) but loses precision exactly
as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Cond
from repro.core.symvalue import Root, SymValue


@dataclass
class Interval:
    """A closed integer interval; ``None`` bounds mean unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def tighten_lo(self, bound: int) -> None:
        if self.lo is None or bound > self.lo:
            self.lo = bound

    def tighten_hi(self, bound: int) -> None:
        if self.hi is None or bound < self.hi:
            self.hi = bound

    def add(self, cond: Cond, k: int, observed: int) -> None:
        """Intersect with ``x cond k``.

        *observed* is the concrete value the root held during execution;
        it is used to pick a side when folding ``!=`` into the interval.
        """
        if cond is Cond.EQ:
            self.tighten_lo(k)
            self.tighten_hi(k)
        elif cond is Cond.LT:
            self.tighten_hi(k - 1)
        elif cond is Cond.LE:
            self.tighten_hi(k)
        elif cond is Cond.GT:
            self.tighten_lo(k + 1)
        elif cond is Cond.GE:
            self.tighten_lo(k)
        elif cond is Cond.NE:
            if not self.contains(k):
                return  # already excluded
            if observed < k:
                self.tighten_hi(k - 1)
            else:
                # observed > k is the common case; observed == k cannot
                # occur (the branch resolved with x != k).
                self.tighten_lo(k + 1)
        else:  # pragma: no cover - exhaustive over Cond
            raise ValueError(f"unknown condition: {cond}")

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


_SWAP = {
    Cond.EQ: Cond.EQ,
    Cond.NE: Cond.NE,
    Cond.LT: Cond.GT,
    Cond.LE: Cond.GE,
    Cond.GT: Cond.LT,
    Cond.GE: Cond.LE,
}


def constraint_from_branch(
    cond: Cond, sym: SymValue, k: int, reversed_operands: bool = False
) -> tuple[Root, Cond, int]:
    """Normalize a resolved branch into a root-level bound.

    ``sym cond k``   →  ``root cond (k - delta)``
    ``k cond sym``   →  ``root swap(cond) (k - delta)``

    Returns ``(root, cond, bound)``.
    """
    bound = k - sym.delta
    if reversed_operands:
        cond = _SWAP[cond]
    return sym.root, cond, bound


@dataclass
class Constraint:
    """All interval constraints accumulated for one root location."""

    root: Root
    interval: Interval

    def satisfied_by(self, value: int) -> bool:
        return self.interval.contains(value)


#: Paper Table 1 capacity — single source of truth for the default
#: constraint-buffer bound; :class:`repro.sim.config.MachineConfig`
#: imports it so config-built and directly-constructed buffers agree.
DEFAULT_CONSTRAINT_ENTRIES = 16


class ConstraintBufferFull(Exception):
    """Raised when a new root cannot be admitted to the buffer."""


class ConstraintBuffer:
    """Fixed-capacity buffer of per-root interval constraints.

    Capacity counts *distinct root locations* (paper Table 1:
    "16-entry constraint buffer"; §4.4 notes constraints are kept in a
    separate word-granularity buffer).  Equality constraints do not
    live here — they are compressed into per-word equality bits in the
    initial value buffer (§4.4, "Compressed representation of equality
    constraints").
    """

    def __init__(
        self, capacity: Optional[int] = DEFAULT_CONSTRAINT_ENTRIES
    ) -> None:
        self.capacity = capacity
        self._by_root: dict[Root, Constraint] = {}

    def __len__(self) -> int:
        return len(self._by_root)

    def __contains__(self, root: Root) -> bool:
        return root in self._by_root

    def get(self, root: Root) -> Optional[Constraint]:
        return self._by_root.get(root)

    def roots(self) -> list[Root]:
        return list(self._by_root)

    def add_bound(
        self, root: Root, cond: Cond, bound: int, observed: int
    ) -> None:
        """Record ``root cond bound``; raise if the buffer is full.

        The caller handles :class:`ConstraintBufferFull` by demoting the
        constraint to an equality bit (always sound, never weaker).
        """
        constraint = self._by_root.get(root)
        if constraint is None:
            if (
                self.capacity is not None
                and len(self._by_root) >= self.capacity
            ):
                raise ConstraintBufferFull(root)
            constraint = Constraint(root=root, interval=Interval())
            self._by_root[root] = constraint
        constraint.interval.add(cond, bound, observed)

    def check(self, root_values: dict[Root, int]) -> Optional[Root]:
        """Return the first violated root, or None if all pass."""
        for root, constraint in self._by_root.items():
            if not constraint.satisfied_by(root_values[root]):
                return root
        return None

    def clear(self) -> None:
        self._by_root.clear()
