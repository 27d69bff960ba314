"""RETCON hardware structures (paper Figure 5, with §4.4 optimizations).

* :class:`InitialValueBuffer` — cache-like, indexed by *block* (§4.4,
  "Maintenance of initial value buffer entries at cache-block
  granularity").  Each entry holds the initial concrete bytes of the
  block, per-word equality bits (§4.4, "Compressed representation of
  equality constraints") and a written bit (§4.4, "Avoidance of
  upgrade misses during pre-commit").
* :class:`SymbolicStoreBuffer` — unordered, address-indexed; each entry
  holds the store's concrete value (what memory would hold: narrowed
  to the store's width) and its symbolic value (if any).
* :class:`SymbolicRegisterFile` — the current symbolic value (if any)
  of each architectural register.
* :class:`ConditionCodes` — the condition-code register extended with a
  symbolic constraint field (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.isa.instructions import Cond
from repro.isa.registers import NUM_REGS
from repro.mem.address import BLOCK_SIZE, WORD_SIZE, block_base
from repro.mem.memory import narrow
from repro.core.symvalue import SymValue

#: Paper Table 1 capacities — the single source of truth for the
#: default sizes of the bounded RETCON structures.
#: :class:`repro.sim.config.MachineConfig` imports these, so a
#: directly-constructed buffer and a config-built one can never
#: disagree on the default bound.
DEFAULT_IVB_ENTRIES = 16
DEFAULT_SSB_ENTRIES = 32


@dataclass(slots=True)
class IVBEntry:
    """One block tracked by the initial value buffer."""

    block: int
    initial_bytes: bytes  # the 64 bytes first observed by this transaction
    #: word indices (0..7) whose value must be unchanged at commit
    equality_words: set[int] = field(default_factory=set)
    #: §4.4: reacquire with write permission at pre-commit if set
    written: bool = False
    #: set when a remote writer stole the block mid-transaction
    lost: bool = False

    def read_initial(self, addr: int, size: int) -> int:
        """Read a signed integer from the captured initial bytes."""
        offset = addr - block_base(self.block)
        raw = self.initial_bytes[offset : offset + size]
        return int.from_bytes(raw, "little", signed=True)

    def read_initial_bytes(self, addr: int, size: int) -> bytes:
        offset = addr - block_base(self.block)
        return self.initial_bytes[offset : offset + size]

    def mark_equality(self, addr: int, size: int) -> None:
        """Require the words covering [addr, addr+size) to be unchanged."""
        base = block_base(self.block)
        first = (addr - base) // WORD_SIZE
        last = (addr + size - 1 - base) // WORD_SIZE
        self.equality_words.update(range(first, last + 1))

    def equality_violated(self, current: bytes) -> bool:
        """Check the equality words against the block's current bytes."""
        for word in self.equality_words:
            lo = word * WORD_SIZE
            hi = lo + WORD_SIZE
            if current[lo:hi] != self.initial_bytes[lo:hi]:
                return True
        return False


class InitialValueBuffer:
    """Block-granularity buffer of initial values (16 entries by default)."""

    def __init__(
        self, capacity: Optional[int] = DEFAULT_IVB_ENTRIES
    ) -> None:
        self.capacity = capacity
        #: public read-only view for fast-path probes (``get``/``in``
        #: without a Python call); mutate only through
        #: :meth:`allocate` / :meth:`clear` so capacity accounting
        #: cannot be skipped
        self.entries_by_block: dict[int, IVBEntry] = {}

    def __len__(self) -> int:
        return len(self.entries_by_block)

    def __contains__(self, block: int) -> bool:
        return block in self.entries_by_block

    def get(self, block: int) -> Optional[IVBEntry]:
        return self.entries_by_block.get(block)

    def entries(self) -> Iterator[IVBEntry]:
        return iter(self.entries_by_block.values())

    def is_full(self) -> bool:
        return (
            self.capacity is not None
            and len(self.entries_by_block) >= self.capacity
        )

    def allocate(self, block: int, initial_bytes: bytes) -> Optional[IVBEntry]:
        """Start tracking *block*; return None if the buffer is full."""
        existing = self.entries_by_block.get(block)
        if existing is not None:
            return existing
        if self.is_full():
            return None
        if len(initial_bytes) != BLOCK_SIZE:
            raise ValueError("IVB entries are captured at block granularity")
        entry = IVBEntry(block=block, initial_bytes=bytes(initial_bytes))
        self.entries_by_block[block] = entry
        return entry

    def clear(self) -> None:
        self.entries_by_block.clear()


@dataclass(slots=True)
class SSBEntry:
    """One symbolically-tracked (or block-tracked) store."""

    addr: int
    size: int
    #: concrete value at store time, as a load of the stored bytes
    #: would return it (signed, ``size`` bytes)
    value: int
    sym: Optional[SymValue] = None

    @property
    def end(self) -> int:
        return self.addr + self.size

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.end

    def value_bytes(self) -> bytes:
        mask = (1 << (8 * self.size)) - 1
        return (self.value & mask).to_bytes(self.size, "little")


class SymbolicStoreBufferFull(Exception):
    """Raised when a store cannot be admitted (bounded configuration)."""


class SymbolicStoreBuffer:
    """Unordered store buffer indexed by data address (32 entries)."""

    def __init__(
        self, capacity: Optional[int] = DEFAULT_SSB_ENTRIES
    ) -> None:
        self.capacity = capacity
        #: public read-only view for fast-path probes; mutate only
        #: through :meth:`put` / :meth:`remove` / :meth:`clear` so the
        #: region index and capacity accounting stay consistent
        self.entries_by_addr: dict[int, SSBEntry] = {}
        # Entry start addresses per 64-byte region.  Entries are at
        # most 8 bytes, so any entry overlapping [addr, addr+size)
        # starts within [addr-7, addr+size) — a window spanning at
        # most two regions.  Probes visit only the starts actually
        # present in those regions instead of scanning the window.
        self._region_starts: dict[int, set[int]] = {}
        #: high-water mark of entries used this transaction (Table 3)
        self.peak = 0

    def __len__(self) -> int:
        return len(self.entries_by_addr)

    def entries(self) -> list[SSBEntry]:
        return list(self.entries_by_addr.values())

    def lookup(self, addr: int, size: int) -> Optional[SSBEntry]:
        """Return the entry exactly matching (addr, size), if any."""
        entry = self.entries_by_addr.get(addr)
        if entry is not None and entry.size == size:
            return entry
        return None

    def has_overlap(self, addr: int, size: int) -> bool:
        """Does any entry overlap [addr, addr+size)?

        Allocation-free form of ``bool(overlapping(addr, size))`` for
        the per-load probe that runs on every untracked access.
        """
        entries = self.entries_by_addr
        if not entries:
            return False
        starts = self._region_starts
        low = (addr - 7) >> 6
        high = (addr + size - 1) >> 6
        end = addr + size
        region = starts.get(low)
        if region is not None:
            for start in region:
                if start < end and entries[start].end > addr:
                    return True
        if high != low:
            region = starts.get(high)
            if region is not None:
                for start in region:
                    if start < end and entries[start].end > addr:
                        return True
        return False

    def overlapping(self, addr: int, size: int) -> list[SSBEntry]:
        """Return every entry overlapping [addr, addr+size)."""
        entries = self.entries_by_addr
        if not entries:
            return []
        starts = self._region_starts
        low = (addr - 7) >> 6
        high = (addr + size - 1) >> 6
        end = addr + size
        # Region sets are unordered; callers see entries in ascending
        # start-address order (the historical window-scan order), so
        # each region's starts are sorted.  All starts in the low
        # region precede those in the high region.
        found = []
        region = starts.get(low)
        if region is not None:
            for start in sorted(region) if len(region) > 1 else region:
                if start < end:
                    entry = entries[start]
                    if entry.end > addr:
                        found.append(entry)
        if high != low:
            region = starts.get(high)
            if region is not None:
                for start in sorted(region) if len(region) > 1 else region:
                    if start < end:
                        entry = entries[start]
                        if entry.end > addr:
                            found.append(entry)
        return found

    def put(
        self, addr: int, size: int, value: int, sym: Optional[SymValue]
    ) -> SSBEntry:
        """Insert or replace the entry at *addr*.

        The engine resolves overlaps before calling; here an exact
        address match replaces, capacity is enforced for new entries,
        and *value* is narrowed to the store's width.
        """
        existing = self.entries_by_addr.get(addr)
        if existing is None:
            if (
                self.capacity is not None
                and len(self.entries_by_addr) >= self.capacity
            ):
                raise SymbolicStoreBufferFull(addr)
            region = addr >> 6
            starts = self._region_starts
            members = starts.get(region)
            if members is None:
                starts[region] = {addr}
            else:
                members.add(addr)
        entry = SSBEntry(addr, size, narrow(value, size), sym)
        self.entries_by_addr[addr] = entry
        n = len(self.entries_by_addr)
        if n > self.peak:
            self.peak = n
        return entry

    def remove(self, addr: int) -> Optional[SSBEntry]:
        entry = self.entries_by_addr.pop(addr, None)
        if entry is not None:
            region = addr >> 6
            members = self._region_starts[region]
            members.discard(addr)
            if not members:
                del self._region_starts[region]
        return entry

    def clear(self) -> None:
        self.entries_by_addr.clear()
        self._region_starts.clear()
        self.peak = 0


_NO_SYMS: tuple = (None,) * NUM_REGS


class SymbolicRegisterFile:
    """Symbolic value (or None) for each architectural register."""

    def __init__(self) -> None:
        self._syms: list[Optional[SymValue]] = [None] * NUM_REGS

    def get(self, reg: int) -> Optional[SymValue]:
        return self._syms[reg]

    def set(self, reg: int, sym: Optional[SymValue]) -> None:
        self._syms[reg] = sym

    def symbolic_regs(self) -> list[tuple[int, SymValue]]:
        return [
            (i, sym) for i, sym in enumerate(self._syms) if sym is not None
        ]

    def clear(self) -> None:
        # Slice-assign from a shared template: this runs on every
        # transaction begin/abort, and the C-level copy beats a Python
        # loop over the register indices.
        self._syms[:] = _NO_SYMS


@dataclass(slots=True)
class ConditionCodes:
    """Condition-code state set by ``Cmp`` and read by ``Bcc``.

    Concretely the codes remember the two compared values.  The RETCON
    extension is the symbolic side: if one comparison operand was
    symbolic, ``sym`` holds it, ``other`` holds the concrete operand,
    and ``reversed_operands`` records whether the symbolic operand was
    on the right-hand side (``k cond sym``).
    """

    lhs: int = 0
    rhs: int = 0
    sym: Optional[SymValue] = None
    other: int = 0
    reversed_operands: bool = False
    valid: bool = False

    def set_concrete(self, lhs: int, rhs: int) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.sym = None
        self.other = 0
        self.reversed_operands = False
        self.valid = True

    def set_symbolic(
        self, lhs: int, rhs: int, sym: SymValue, reversed_operands: bool
    ) -> None:
        self.set_concrete(lhs, rhs)
        self.sym = sym
        self.other = lhs if reversed_operands else rhs
        self.reversed_operands = reversed_operands

    def evaluate(self, cond: Cond) -> bool:
        from repro.isa.instructions import evaluate_cond

        if not self.valid:
            raise RuntimeError("Bcc executed before any Cmp")
        return evaluate_cond(cond, self.lhs, self.rhs)

    def clear(self) -> None:
        self.valid = False
        self.sym = None
