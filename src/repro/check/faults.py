"""Fault injection: a self-test of the correctness oracle.

An oracle that never fires is indistinguishable from an oracle that
cannot fire.  This module deliberately corrupts the RETCON structures
— symbolic store-buffer entries, symbolic registers, interval
constraints, equality bits, captured initial values, the commit plan
itself — and an aborting transaction's undo log at well-defined
points in the commit and abort sequences, then the test harness
asserts the repair oracle reports each corruption as an
:class:`~repro.check.oracle.OracleViolation`.

Fault points are **enumerable** (the :data:`FAULT_POINTS` registry is
the catalog, mirrored in ``docs/correctness_oracle.md``) and
**seeded**: an injector picks its victim entry with its own
``random.Random(0)``, so a failing fault trial reproduces exactly.

Three stages:

* ``pre-validate`` — in :meth:`repro.htm.system.RetconTMSystem._pre_commit`,
  after lost blocks are reacquired, before the engine validates its
  constraints: corruptions of the engine state (SSB, symbolic
  registers, constraint buffer, IVB).
* ``post-plan`` — in :meth:`repro.htm.system.BaseTMSystem._check_commit`,
  once any commit path built its :class:`~repro.core.engine.CommitPlan`
  (a RETCON repair plan, a lazy or STM write buffer's runs), before the
  oracle check and the store drain: corruptions of the plan itself
  (models bugs in the drain/repair datapath).
* ``rollback`` — in :meth:`repro.htm.system.BaseTMSystem._rollback`,
  before an aborting transaction's undo log is restored: corruptions
  of the log (models a lost eager-version restore).  No commit plan
  is wrong: the oracle sees the corruption in what later commits read
  and in its final-state check.

Every ``apply`` function returns True only if it actually mutated
something, so an injector keeps arming itself until a commit or an
abort with a corruptible structure comes along.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.engine import CommitPlan, RetconEngine
from repro.htm.versioning import UndoLog
from repro.mem.address import block_base, block_of

#: (engine-or-None, plan-or-undo-log-or-None, rng) -> mutated?
ApplyFn = Callable[
    [Optional[RetconEngine], Union[CommitPlan, UndoLog, None], random.Random],
    bool,
]

PRE_VALIDATE = "pre-validate"
POST_PLAN = "post-plan"
ROLLBACK = "rollback"


@dataclass(frozen=True)
class FaultPoint:
    """One named, documented corruption."""

    name: str
    stage: str
    description: str
    apply: ApplyFn


# ----------------------------------------------------------------------
# pre-validate faults: corrupt the engine structures
# ----------------------------------------------------------------------
def _ssb_value_skew(engine, _plan, rng) -> bool:
    """Skew a buffered store's concrete value (and strip its symbolic
    expression, as a broken tracking datapath would)."""
    entries = engine.ssb.entries()
    if not entries:
        return False
    entry = rng.choice(entries)
    entry.value += 1
    entry.sym = None
    return True


def _ssb_delta_skew(engine, _plan, rng) -> bool:
    """Skew the delta of a symbolic store-buffer entry by +1."""
    entries = [e for e in engine.ssb.entries() if e.sym is not None]
    if not entries:
        return False
    entry = rng.choice(entries)
    entry.sym = entry.sym.shifted(1)
    return True


def _ssb_drop(engine, _plan, rng) -> bool:
    """Silently lose one buffered store."""
    entries = engine.ssb.entries()
    if not entries:
        return False
    engine.ssb.remove(rng.choice(entries).addr)
    return True


def _ssb_addr_shift(engine, _plan, rng) -> bool:
    """Re-home a buffered store at a shifted address."""
    entries = engine.ssb.entries()
    if not entries:
        return False
    entry = rng.choice(entries)
    engine.ssb.remove(entry.addr)
    engine.ssb.put(
        entry.addr + entry.size, entry.size, entry.value, entry.sym
    )
    return True


def _ssb_size_truncate(engine, _plan, rng) -> bool:
    """Halve the width of a multi-byte buffered store."""
    entries = [e for e in engine.ssb.entries() if e.size >= 2]
    if not entries:
        return False
    entry = rng.choice(entries)
    entry.size //= 2
    return True


def _capacity_overflow(engine, _plan, _rng) -> bool:
    """Model a buggy capacity-eviction path: silently evict the
    lowest-addressed SSB entry instead of aborting the transaction.

    A correct capacity overflow aborts (or serializes) the offender;
    an eviction that pretends the store never happened is exactly the
    kind of bookkeeping bug the bounded-buffer code could introduce,
    and the oracle must see the lost store at commit.  Requires two
    entries so the commit still drains something.
    """
    entries = engine.ssb.entries()
    if len(entries) < 2:
        return False
    victim = min(entries, key=lambda entry: entry.addr)
    engine.ssb.remove(victim.addr)
    return True


def _sreg_delta_skew(engine, _plan, rng) -> bool:
    """Skew a symbolic register's delta by +1 (wrong repair value)."""
    symbolic = engine.sregs.symbolic_regs()
    if not symbolic:
        return False
    reg, sym = rng.choice(symbolic)
    engine.sregs.set(reg, sym.shifted(1))
    return True


def _sreg_drop(engine, _plan, rng) -> bool:
    """Forget that a register is symbolic (its stale executed value
    survives the commit unrepaired)."""
    symbolic = engine.sregs.symbolic_regs()
    if not symbolic:
        return False
    reg, _sym = rng.choice(symbolic)
    engine.sregs.set(reg, None)
    return True


def _constraint_clear(engine, _plan, _rng) -> bool:
    """Discard every interval constraint before validation."""
    if len(engine.constraints) == 0:
        return False
    engine.constraints.clear()
    return True


def _equality_clear(engine, _plan, _rng) -> bool:
    """Discard every compressed equality bit before validation."""
    cleared = False
    for entry in engine.ivb.entries():
        if entry.equality_words:
            entry.equality_words.clear()
            cleared = True
    return cleared


def _ivb_initial_skew(engine, _plan, rng) -> bool:
    """Corrupt the captured initial bytes under a live symbolic root.

    Targets a non-lost tracked block that roots a symbolic expression,
    so the engine evaluates repairs against the corrupted observation
    while the replay reads the true (unchanged) memory value.
    """
    roots = [e.sym.root for e in engine.ssb.entries() if e.sym is not None]
    roots += [sym.root for _reg, sym in engine.sregs.symbolic_regs()]
    candidates = []
    for addr, size in roots:
        entry = engine.ivb.get(block_of(addr))
        if entry is not None and not entry.lost:
            candidates.append((entry, addr, size))
    if not candidates:
        return False
    entry, addr, _size = rng.choice(candidates)
    offset = addr - block_base(entry.block)
    raw = bytearray(entry.initial_bytes)
    raw[offset] = (raw[offset] + 1) % 256
    entry.initial_bytes = bytes(raw)
    return True


# ----------------------------------------------------------------------
# post-plan faults: corrupt the commit plan
# ----------------------------------------------------------------------
def _plan_store_skew(_engine, plan, rng) -> bool:
    """Skew one drained store's final value by +1."""
    if plan is None or not plan.stores:
        return False
    i = rng.randrange(len(plan.stores))
    addr, size, value = plan.stores[i]
    plan.stores[i] = (addr, size, value + 1)
    return True


def _plan_store_drop(_engine, plan, rng) -> bool:
    """Drop one store from the drain list."""
    if plan is None or not plan.stores:
        return False
    del plan.stores[rng.randrange(len(plan.stores))]
    return True


def _plan_store_misdirect(_engine, plan, rng) -> bool:
    """Drain one store to a shifted address."""
    if plan is None or not plan.stores:
        return False
    i = rng.randrange(len(plan.stores))
    addr, size, value = plan.stores[i]
    plan.stores[i] = (addr + size, size, value)
    return True


def _plan_reg_skew(_engine, plan, rng) -> bool:
    """Skew one register repair's value by +1."""
    if plan is None or not plan.registers:
        return False
    i = rng.randrange(len(plan.registers))
    reg, value = plan.registers[i]
    plan.registers[i] = (reg, value + 1)
    return True


def _plan_reg_drop(_engine, plan, rng) -> bool:
    """Drop one register repair (stale register survives commit)."""
    if plan is None or not plan.registers:
        return False
    del plan.registers[rng.randrange(len(plan.registers))]
    return True


# ----------------------------------------------------------------------
# rollback faults: corrupt the undo log
# ----------------------------------------------------------------------
def _undo_entry_drop(_engine, undo, rng) -> bool:
    """Leave one logged store unrestored by the abort."""
    if not undo:
        return False
    del undo._entries[rng.randrange(len(undo))]
    return True


FAULT_POINTS: dict[str, FaultPoint] = {
    point.name: point
    for point in (
        FaultPoint(
            "ssb-value-skew", PRE_VALIDATE,
            "buffered store's concrete value +1, symbolic expr dropped",
            _ssb_value_skew,
        ),
        FaultPoint(
            "ssb-delta-skew", PRE_VALIDATE,
            "symbolic store expression [root]+d becomes [root]+d+1",
            _ssb_delta_skew,
        ),
        FaultPoint(
            "ssb-drop", PRE_VALIDATE,
            "one buffered store silently lost",
            _ssb_drop,
        ),
        FaultPoint(
            "ssb-addr-shift", PRE_VALIDATE,
            "one buffered store re-homed at addr+size",
            _ssb_addr_shift,
        ),
        FaultPoint(
            "ssb-size-truncate", PRE_VALIDATE,
            "one buffered store's width halved",
            _ssb_size_truncate,
        ),
        FaultPoint(
            "capacity-overflow", PRE_VALIDATE,
            "bounded SSB silently evicts its lowest-addressed entry",
            _capacity_overflow,
        ),
        FaultPoint(
            "sreg-delta-skew", PRE_VALIDATE,
            "symbolic register [root]+d becomes [root]+d+1",
            _sreg_delta_skew,
        ),
        FaultPoint(
            "sreg-drop", PRE_VALIDATE,
            "symbolic register demoted to concrete (no repair emitted)",
            _sreg_drop,
        ),
        FaultPoint(
            "constraint-clear", PRE_VALIDATE,
            "interval constraint buffer emptied before validation",
            _constraint_clear,
        ),
        FaultPoint(
            "equality-clear", PRE_VALIDATE,
            "IVB equality bits cleared before validation",
            _equality_clear,
        ),
        FaultPoint(
            "ivb-initial-skew", PRE_VALIDATE,
            "captured initial byte under a symbolic root corrupted",
            _ivb_initial_skew,
        ),
        FaultPoint(
            "plan-store-skew", POST_PLAN,
            "one planned drain value +1",
            _plan_store_skew,
        ),
        FaultPoint(
            "plan-store-drop", POST_PLAN,
            "one planned drain dropped",
            _plan_store_drop,
        ),
        FaultPoint(
            "plan-store-misdirect", POST_PLAN,
            "one planned drain redirected to addr+size",
            _plan_store_misdirect,
        ),
        FaultPoint(
            "plan-reg-skew", POST_PLAN,
            "one register repair value +1",
            _plan_reg_skew,
        ),
        FaultPoint(
            "plan-reg-drop", POST_PLAN,
            "one register repair dropped",
            _plan_reg_drop,
        ),
        FaultPoint(
            "undo-entry-drop", ROLLBACK,
            "one logged store left unrestored by an abort",
            _undo_entry_drop,
        ),
    )
}


class FaultInjector:
    """Applies one named fault point during a commit or an abort.

    Installed on any TM system via its ``fault_injector`` attribute:
    every commit fires ``post-plan`` (a plan-store fault corrupts a
    RETCON, lazy or STM commit alike), a RETCON pre-commit also fires
    ``pre-validate``, and every abort fires ``rollback``.  By default
    the fault is injected on every eligible commit or abort
    (``max_fires=None``); bound it to study a single corruption.
    """

    def __init__(
        self,
        fault: str,
        max_fires: Optional[int] = None,
    ) -> None:
        if fault not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {fault!r}; choose from "
                f"{sorted(FAULT_POINTS)}"
            )
        self.point = FAULT_POINTS[fault]
        self.rng = random.Random(0)
        self.max_fires = max_fires
        self.fires = 0

    def fire(
        self,
        stage: str,
        engine: Optional[RetconEngine],
        plan: Union[CommitPlan, UndoLog, None],
    ) -> None:
        if stage != self.point.stage:
            return
        if self.max_fires is not None and self.fires >= self.max_fires:
            return
        if self.point.apply(engine, plan, self.rng):
            self.fires += 1
