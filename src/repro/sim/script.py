"""Thread scripts: the unit of work a core executes.

A :class:`ThreadScript` is a sequence of items:

* :class:`Txn` — a transaction (or speculatively-elided critical
  section; the paper treats them identically), expressed as an ISA
  program.  On abort the program restarts from its first instruction
  with registers restored.
* :class:`Work` — non-transactional busy work of a fixed cycle count
  (models the computation between critical sections).
* :class:`Barrier` — all cores must arrive before any proceeds (models
  the phase barriers in kmeans/labyrinth-style workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.isa.program import Program


@dataclass(frozen=True, slots=True)
class Txn:
    """One transaction to execute atomically."""

    program: Program
    label: str = "txn"


@dataclass(frozen=True, slots=True)
class Work:
    """Non-transactional busy time."""

    cycles: int


@dataclass(frozen=True)
class Barrier:
    """A global synchronization barrier."""


ScriptItem = Union[Txn, Work, Barrier]


@dataclass
class ThreadScript:
    """The full program of one thread."""

    items: list[ScriptItem] = field(default_factory=list)

    def add_txn(self, program: Program, label: str = "txn") -> None:
        self.items.append(Txn(program=program, label=label))

    def add_work(self, cycles: int) -> None:
        if cycles > 0:
            self.items.append(Work(cycles=cycles))

    def add_barrier(self) -> None:
        self.items.append(Barrier())

    def txn_count(self) -> int:
        return sum(1 for item in self.items if isinstance(item, Txn))

    def __len__(self) -> int:
        return len(self.items)


def concatenate(scripts: list[ThreadScript]) -> ThreadScript:
    """Merge per-thread scripts into one sequential script.

    Used for the sequential baseline: barriers are dropped (a single
    thread never waits) and transactions from all threads run back to
    back in thread order.
    """
    merged = ThreadScript()
    for script in scripts:
        for item in script.items:
            if not isinstance(item, Barrier):
                merged.items.append(item)
    return merged

