"""Per-core RETCON engine (paper §4.2, Figures 6 and 7).

The engine owns the RETCON structures (initial value buffer, symbolic
store buffer, symbolic register file, constraint buffer, condition
codes) and implements all symbolic-tracking decisions.  It is
deliberately free of coherence/contention plumbing: the HTM system
(:mod:`repro.htm.system`) decides which path an access takes, performs
coherence actions, and drives the pre-commit repair using the plan
methods exposed here.

Invariants maintained:

* every symbolic value's root location lies within an IVB-tracked
  block (roots are only created by symbolic loads of tracked blocks);
* symbolic store buffer entries are pairwise non-overlapping (partial
  overlaps are merged concretely, with equality constraints placed on
  the symbolic values involved — paper §4.3's "too complex"
  store-load communication rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.buffers import (
    ConditionCodes,
    InitialValueBuffer,
    IVBEntry,
    SSBEntry,
    SymbolicRegisterFile,
    SymbolicStoreBuffer,
    SymbolicStoreBufferFull,
    DEFAULT_IVB_ENTRIES,
    DEFAULT_SSB_ENTRIES,
)
from repro.core.constraints import (
    ConstraintBuffer,
    ConstraintBufferFull,
    DEFAULT_CONSTRAINT_ENTRIES,
    constraint_from_branch,
)
from repro.core.predictor import ConflictPredictor
from repro.core.symvalue import Root, SymValue, sym_root
from repro.isa.instructions import TRACKABLE_OPS, Cond, negate_cond
from repro.mem.address import WORD_SIZE, block_base, block_of


class CapacityAbort(Exception):
    """The transaction exceeded a bounded RETCON structure (SSB).

    Carries the overflowing *structure* name and, when known, the
    *addr* whose admission failed, so the TM layer can attribute the
    abort (``structure × workload × backend``) in the obs stream.
    """

    def __init__(
        self,
        message: str,
        structure: str = "ssb",
        addr: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.structure = structure
        self.addr = addr


class ConstraintViolation(Exception):
    """A commit-time constraint rejected the reacquired values."""

    def __init__(self, block: int) -> None:
        super().__init__(f"constraint violated on block {block}")
        self.block = block


@dataclass(slots=True)
class TxnRetconSample:
    """Per-transaction structure-utilization numbers (Table 3)."""

    blocks_lost: int = 0
    blocks_tracked: int = 0
    symbolic_registers: int = 0
    private_stores: int = 0
    constraint_addresses: int = 0
    commit_cycles: int = 0


@dataclass
class CommitPlan:
    """Everything the HTM layer needs to drive pre-commit repair."""

    #: (block, needs_write_permission) for lost blocks to reacquire
    reacquire: list[tuple[int, bool]] = field(default_factory=list)
    #: (addr, size, final_value) stores to drain after validation
    stores: list[tuple[int, int, int]] = field(default_factory=list)
    #: (reg, final_value) register repairs
    registers: list[tuple[int, int]] = field(default_factory=list)


class RetconEngine:
    """RETCON state machine for one core.

    ``symbolic_arithmetic=False`` gives the paper's *lazy-vb* variant:
    blocks are still value-tracked (reads validated byte-precisely at
    commit, stores buffered), but no symbolic repair is performed — a
    changed value always aborts.  Only :meth:`load` reads the flag: it
    mints no root, so no symbolic value reaches the other hooks, and
    the core runs the plain handlers (:mod:`repro.sim.decode`).
    """

    def __init__(
        self,
        ivb_capacity: Optional[int] = DEFAULT_IVB_ENTRIES,
        constraint_capacity: Optional[int] = DEFAULT_CONSTRAINT_ENTRIES,
        ssb_capacity: Optional[int] = DEFAULT_SSB_ENTRIES,
        symbolic_arithmetic: bool = True,
        predictor: Optional[ConflictPredictor] = None,
    ) -> None:
        self.symbolic_arithmetic = symbolic_arithmetic
        self.predictor = predictor or ConflictPredictor()
        self.ivb = InitialValueBuffer(capacity=ivb_capacity)
        self.ssb = SymbolicStoreBuffer(capacity=ssb_capacity)
        self.constraints = ConstraintBuffer(capacity=constraint_capacity)
        self.sregs = SymbolicRegisterFile()
        self.cc = ConditionCodes()
        self.blocks_lost_count = 0
        # Roots already pinned this transaction: equality constraints
        # are idempotent, so repeat pins (every iteration of a loop
        # with a symbolic base register, say) skip the IVB word walk.
        self._pinned_roots: set[Root] = set()

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin_txn(self) -> None:
        self.ivb.clear()
        self.ssb.clear()
        self.constraints.clear()
        self.sregs.clear()
        self.cc.clear()
        self.blocks_lost_count = 0
        self._pinned_roots.clear()

    abort_txn = begin_txn  # aborting discards exactly the same state

    # ------------------------------------------------------------------
    # Tracking decisions
    # ------------------------------------------------------------------
    def is_tracked(self, block: int) -> bool:
        """Is *block* already tracked by this transaction?"""
        return block in self.ivb

    def wants_tracking(self, block: int) -> bool:
        """Would the predictor track *block*, and is there room?"""
        return self.predictor.should_track(block) and not self.ivb.is_full()

    def start_tracking(self, block: int, current_bytes: bytes) -> IVBEntry:
        """Capture *block*'s initial value and begin tracking it."""
        entry = self.ivb.allocate(block, current_bytes)
        if entry is None:  # pragma: no cover - guarded by wants_tracking
            raise RuntimeError("IVB full; caller must check wants_tracking")
        return entry

    def on_block_lost(self, block: int) -> None:
        """A remote writer invalidated a tracked block mid-transaction."""
        entry = self.ivb.get(block)
        if entry is not None and not entry.lost:
            entry.lost = True
            self.blocks_lost_count += 1

    # ------------------------------------------------------------------
    # Equality constraints
    # ------------------------------------------------------------------
    def equality_constrain(self, root: Root) -> None:
        """Pin a root location to its initial value (§4.2)."""
        if root in self._pinned_roots:
            return
        addr, size = root
        entry = self.ivb.get(block_of(addr))
        if entry is None:  # pragma: no cover - invariant
            raise RuntimeError(f"root {root} not in a tracked block")
        entry.mark_equality(addr, size)
        self._pinned_roots.add(root)

    def equality_constrain_sym(self, sym: Optional[SymValue]) -> None:
        if sym is not None:
            self.equality_constrain(sym.root)

    def _root_observed(self, root: Root) -> int:
        """The concrete value the root held during execution."""
        addr, size = root
        entry = self.ivb.get(block_of(addr))
        if entry is None:  # pragma: no cover - invariant
            raise RuntimeError(f"root {root} not in a tracked block")
        return entry.read_initial(addr, size)

    # ------------------------------------------------------------------
    # Loads (Figure 6, left)
    # ------------------------------------------------------------------
    def _overlay(self, raw: bytearray, lo: int, entries) -> int:
        """Lay *entries*' bytes over *raw* (the bytes of ``[lo,
        lo+len(raw))``) in order, pinning every symbolic value
        involved: §4.3's "too complex" store-load communication is
        composed concretely.  Returns the number of bytes laid."""
        hi = lo + len(raw)
        laid = 0
        for ssb_entry in entries:
            self.equality_constrain_sym(ssb_entry.sym)
            start = max(ssb_entry.addr, lo)
            stop = min(ssb_entry.end, hi)
            raw[start - lo : stop - lo] = ssb_entry.value_bytes()[
                start - ssb_entry.addr : stop - ssb_entry.addr
            ]
            laid += stop - start
        return laid

    def load(
        self, addr: int, size: int, memory_bytes: Optional[bytes] = None
    ) -> tuple[int, Optional[SymValue]]:
        """The one read through the SSB: ``(value, symbolic value)``.

        With ``memory_bytes=None`` the block is tracked and the bytes
        under the buffer are its initial value (reading them mints or
        pins a root).  Otherwise the range is untracked (or straddles
        blocks), the caller found an SSB overlap, and ``memory_bytes``
        is its current memory content.
        """
        # (ssb.lookup, inlined: this is RetconTMSystem.load's hot path)
        exact = self.ssb.entries_by_addr.get(addr)
        if exact is not None and exact.size == size:
            # Store-to-load bypass (§4.3).  A sub-word reload is the
            # sign-extended low bytes of [root]+delta, which stops
            # being [root]+delta once repair moves the root out of the
            # store's range: forward the concrete value and pin.
            sym = exact.sym
            if sym is not None and size != WORD_SIZE:
                self.equality_constrain(sym.root)
                sym = None
            return exact.value, sym

        overlaps = self.ssb.overlapping(addr, size)
        if memory_bytes is not None:
            raw = bytearray(memory_bytes)
            self._overlay(raw, addr, overlaps)
        else:
            entry = self.ivb.get(block_of(addr))
            if entry is None:  # pragma: no cover - caller guarantees
                raise RuntimeError("tracked load of an untracked block")
            if not overlaps:
                value = entry.read_initial(addr, size)
                if not self.symbolic_arithmetic:
                    # lazy-vb: validate-only, no symbolic repair.
                    entry.mark_equality(addr, size)
                    return value, None
                return value, sym_root(addr, size)
            raw = bytearray(entry.read_initial_bytes(addr, size))
            if self._overlay(raw, addr, overlaps) < size:
                # Some bytes came from the initial value: pin them.
                entry.mark_equality(addr, size)
        return int.from_bytes(raw, "little", signed=True), None

    # ------------------------------------------------------------------
    # Stores (Figure 6, right)
    # ------------------------------------------------------------------
    def store_buffered(
        self,
        addr: int,
        size: int,
        value: int,
        sym: Optional[SymValue],
        underlying_bytes: Callable[[int, int], bytes],
    ) -> None:
        """Record a store in the symbolic store buffer.

        Used for every store whose data register is symbolic and for
        every store to a tracked block.  ``underlying_bytes(addr, size)``
        supplies pre-store bytes when a partial overlap must be merged.
        Raises :class:`CapacityAbort` if the (bounded) SSB is full.
        """
        ssb = self.ssb
        try:
            exact = ssb.lookup(addr, size) is not None
            overlaps = [] if exact else ssb.overlapping(addr, size)
            if not overlaps:
                entry = ssb.put(addr, size, value, sym)
                if sym is not None and entry.value != value:
                    # The store truncated [root]+delta: the entry holds
                    # what memory would, which only the pinned root
                    # reproduces.
                    self.equality_constrain(sym.root)
                    entry.sym = None
                return

            # Partial overlap: merge into non-overlapping concrete
            # entries, this store last.
            lo = min(addr, overlaps[0].addr)
            hi = max(addr + size, overlaps[-1].end)
            raw = bytearray(underlying_bytes(lo, hi - lo))
            self._overlay(
                raw, lo, [*overlaps, SSBEntry(addr, size, value, sym)]
            )
            for ssb_entry in overlaps:
                ssb.remove(ssb_entry.addr)
            for start in range(0, hi - lo, WORD_SIZE):
                chunk = raw[start : start + WORD_SIZE]
                ssb.put(
                    lo + start,
                    len(chunk),
                    int.from_bytes(chunk, "little"),
                    None,
                )
        except SymbolicStoreBufferFull as exc:
            raise CapacityAbort(
                "symbolic store buffer full", structure="ssb", addr=addr,
            ) from exc

    def invalidate_ssb(self, addr: int, size: int) -> list[SSBEntry]:
        """A normal (eager) store overwrote [addr, addr+size).

        Exactly-matching entries are dropped (Figure 6: "Invalidate any
        entry for Addr in SSB").  Partially-overlapping entries cannot
        be reconciled with an eager in-place store, so the caller routes
        such stores through the SSB instead; this method returns the
        overlapping entries so the caller can decide.
        """
        exact = self.ssb.lookup(addr, size)
        if exact is not None:
            self.ssb.remove(addr)
            return []
        return self.ssb.overlapping(addr, size)

    def has_ssb_overlap(self, addr: int, size: int) -> bool:
        return self.ssb.has_overlap(addr, size)

    # ------------------------------------------------------------------
    # Register / ALU tracking
    # ------------------------------------------------------------------
    def set_reg_sym(self, reg: int, sym: Optional[SymValue]) -> None:
        self.sregs.set(reg, sym)

    def reg_sym(self, reg: int) -> Optional[SymValue]:
        return self.sregs.get(reg)

    def alu(
        self,
        op: str,
        rd: int,
        rs1_sym: Optional[SymValue],
        src2_sym: Optional[SymValue],
        rs1_val: int,
        src2_val: int,
    ) -> None:
        """Propagate symbolic state through an ALU operation.

        The interpreter computes the concrete result; this decides the
        destination's symbolic value and places equality constraints
        for untrackable uses (§4.2).
        """
        if rs1_sym is None and src2_sym is None:
            self.sregs.set(rd, None)
            return

        if op not in TRACKABLE_OPS:
            self.equality_constrain_sym(rs1_sym)
            self.equality_constrain_sym(src2_sym)
            self.sregs.set(rd, None)
            return

        if rs1_sym is not None and src2_sym is not None:
            # At most one symbolic input (§4.1): pin the second.
            self.equality_constrain_sym(src2_sym)
            src2_sym = None

        if rs1_sym is not None:
            amount = src2_val if op == "add" else -src2_val
            self.sregs.set(rd, rs1_sym.shifted(amount))
            return

        # Only src2 is symbolic.
        if op == "add":
            self.sregs.set(rd, src2_sym.shifted(rs1_val))
        else:
            # rs1 - [root] is not expressible as [root] + delta: pin it.
            self.equality_constrain_sym(src2_sym)
            self.sregs.set(rd, None)

    # ------------------------------------------------------------------
    # Control flow (symbolic constraints, §4.2/§4.3)
    # ------------------------------------------------------------------
    def _record_branch_constraint(
        self,
        cond: Cond,
        sym: SymValue,
        other: int,
        taken: bool,
        reversed_operands: bool,
    ) -> None:
        effective = cond if taken else negate_cond(cond)
        root, norm_cond, bound = constraint_from_branch(
            effective, sym, other, reversed_operands
        )
        observed = self._root_observed(root)
        try:
            self.constraints.add_bound(root, norm_cond, bound, observed)
        except ConstraintBufferFull:
            # §4.4: fall back to the compressed equality representation.
            self.equality_constrain(root)

    def on_branch(
        self,
        cond: Cond,
        rs1_sym: Optional[SymValue],
        src2_sym: Optional[SymValue],
        rs1_val: int,
        src2_val: int,
        taken: bool,
    ) -> None:
        """A compare-and-branch resolved; record any needed constraint."""
        if rs1_sym is not None and src2_sym is not None:
            self.equality_constrain_sym(src2_sym)
            src2_sym = None
        if rs1_sym is not None:
            self._record_branch_constraint(
                cond, rs1_sym, src2_val, taken, reversed_operands=False
            )
        elif src2_sym is not None:
            self._record_branch_constraint(
                cond, src2_sym, rs1_val, taken, reversed_operands=True
            )

    def on_cmp(
        self,
        lhs_val: int,
        rhs_val: int,
        lhs_sym: Optional[SymValue],
        rhs_sym: Optional[SymValue],
    ) -> None:
        """A Cmp executed; update the (symbolically extended) codes."""
        if lhs_sym is not None and rhs_sym is not None:
            self.equality_constrain_sym(rhs_sym)
            rhs_sym = None
        if lhs_sym is not None:
            self.cc.set_symbolic(
                lhs_val, rhs_val, lhs_sym, reversed_operands=False
            )
        elif rhs_sym is not None:
            self.cc.set_symbolic(
                lhs_val, rhs_val, rhs_sym, reversed_operands=True
            )
        else:
            self.cc.set_concrete(lhs_val, rhs_val)

    def on_bcc(self, cond: Cond, taken: bool) -> None:
        """A Bcc resolved against the condition codes (§4.3)."""
        if self.cc.sym is None:
            return
        self._record_branch_constraint(
            cond,
            self.cc.sym,
            self.cc.other,
            taken,
            reversed_operands=self.cc.reversed_operands,
        )

    # ------------------------------------------------------------------
    # Pre-commit repair (Figure 7)
    # ------------------------------------------------------------------
    def reacquire_plan(self) -> list[tuple[int, bool]]:
        """Step 1 targets: lost blocks (write permission if written)."""
        if self.blocks_lost_count == 0:
            # Lost entries stay lost until the transaction ends, so the
            # counter is an exact emptiness test — the common conflict-free
            # commit skips the IVB walk.
            return []
        return [
            (entry.block, entry.written)
            for entry in self.ivb.entries()
            if entry.lost
        ]

    def validate(self, current_blocks: dict[int, bytes]) -> None:
        """Check equality bits and interval constraints (Fig. 7, step 1).

        ``current_blocks`` maps lost block numbers to their freshly
        reacquired bytes.  Raises :class:`ConstraintViolation` on the
        first failure.
        """
        if current_blocks:
            for entry in self.ivb.entries():
                current = current_blocks.get(entry.block)
                if current is None:
                    continue  # never lost: unchanged by construction
                if entry.equality_violated(current):
                    raise ConstraintViolation(entry.block)

        if len(self.constraints):
            root_values = {
                root: self._final_root_value(root, current_blocks)
                for root in self.constraints.roots()
            }
            violated = self.constraints.check(root_values)
            if violated is not None:
                raise ConstraintViolation(block_of(violated[0]))

    def _final_root_value(
        self, root: Root, current_blocks: dict[int, bytes]
    ) -> int:
        addr, size = root
        block = block_of(addr)
        current = current_blocks.get(block)
        if current is None:
            return self._root_observed(root)
        offset = addr - block_base(block)
        return int.from_bytes(
            current[offset : offset + size], "little", signed=True
        )

    def commit_plan(self, current_blocks: dict[int, bytes]) -> CommitPlan:
        """Produce the store drain + register repair lists (Fig. 7, step 2).

        Must be called after :meth:`validate` succeeded.
        """
        plan = CommitPlan(reacquire=self.reacquire_plan())
        root_cache: dict[Root, int] = {}
        final_root = self._final_root_value
        stores = plan.stores
        for entry in self.ssb.entries():
            sym = entry.sym
            if sym is None:
                final = entry.value
            else:
                root = sym.root
                base = root_cache.get(root)
                if base is None:
                    base = root_cache[root] = final_root(
                        root, current_blocks
                    )
                final = sym.evaluate(base)
            stores.append((entry.addr, entry.size, final))

        syms = self.sregs._syms
        if syms.count(None) != len(syms):
            registers = plan.registers
            for reg, sym in enumerate(syms):
                if sym is None:
                    continue
                root = sym.root
                base = root_cache.get(root)
                if base is None:
                    base = root_cache[root] = final_root(
                        root, current_blocks
                    )
                registers.append((reg, sym.evaluate(base)))
        return plan

    def mark_written_blocks(self) -> None:
        """Set IVB written bits for blocks with pending SSB stores
        (§4.4 upgrade-miss avoidance)."""
        if not len(self.ssb) or not len(self.ivb):
            return
        ivb_get = self.ivb.get
        for entry in self.ssb.entries():
            ivb_entry = ivb_get(block_of(entry.addr))
            if ivb_entry is not None:
                ivb_entry.written = True

    # ------------------------------------------------------------------
    # Statistics (Table 3)
    # ------------------------------------------------------------------
    def sample(self, commit_cycles: int = 0) -> TxnRetconSample:
        equality_addresses = 0
        for e in self.ivb.entries():
            if e.equality_words:
                equality_addresses += 1
        syms = self.sregs._syms
        return TxnRetconSample(
            blocks_lost=self.blocks_lost_count,
            blocks_tracked=len(self.ivb),
            symbolic_registers=len(syms) - syms.count(None),
            private_stores=len(self.ssb),
            constraint_addresses=len(self.constraints) + equality_addresses,
            commit_cycles=commit_cycles,
        )
