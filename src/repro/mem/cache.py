"""Set-associative caches of block metadata.

The baseline HTM (paper §2) detects conflicts through the coherence
protocol by adding a "speculatively-read" and a "speculatively-written"
bit to each block in the primary data cache.  A small
*permissions-only cache* (from OneTM / Blundell et al., ISCA 2007)
holds coherence permissions — without data — for blocks evicted from
the L1 during a transaction, which "essentially eliminates cache
overflows entirely" on these workloads.

The caches here carry no speculative state.  The one record of what a
transaction touched is the per-core read/written sets of
:class:`~repro.coherence.directory.CoherenceFabric`: a line is
speculative exactly when its block is in its core's sets.  So the
fabric hands those sets to the L1's :meth:`SetAssocCache.insert` as the
lines to keep, and it holds a permissions-only entry exactly as long as
the spill it records, which makes every permissions-only victim an
overflow.

Caches here track tags and metadata only; data lives in
:class:`~repro.mem.memory.MainMemory`.

Implementation note (hot path): every simulated memory access performs
several lookups across L1/L2/permissions caches, so a lookup is one
probe of a flat ``dict[block -> CacheLine]`` over the whole cache.  A
set is only the list of its resident lines in fill order, kept for
victim selection, and a set holds a list only while a line is in it:
with a few dozen blocks per core spread over thousands of L2 sets, a
container per set costs more than the lines.  LRU state is a single
monotonically increasing tick stamped on the touched line; eviction
picks the line with the smallest stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional, Sequence


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident block."""

    block: int
    writable: bool = False  # False = shared/read permission, True = exclusive
    lru: int = 0


class SetAssocCache:
    """A set-associative cache of block metadata with LRU replacement."""

    def __init__(
        self, size_bytes: int, assoc: int, block_size: int = 64
    ) -> None:
        if assoc < 1:
            raise ValueError("associativity must be at least 1")
        if size_bytes % (assoc * block_size):
            raise ValueError("cache size must be a multiple of way size")
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * block_size)
        # Set index -> its lines in fill order, for occupancy and
        # victim selection; an empty set has no entry.
        self._sets: dict[int, list[CacheLine]] = {}
        # Flat block -> line mirror of _sets, so the (very hot) lookup
        # path is a single dict probe.
        self._lines: dict[int, CacheLine] = {}
        self._tick = 0
        #: capacity evictions performed by :meth:`insert` (read by the
        #: observability layer's end-of-run collection)
        self.evictions = 0

    # -- internals -----------------------------------------------------------
    def _touch(self, line: CacheLine) -> None:
        self._tick += 1
        line.lru = self._tick

    # -- lookup / insert -------------------------------------------------------
    def lookup(self, block: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding *block*, or None on a miss."""
        line = self._lines.get(block)
        if line is not None and touch:
            self._tick += 1
            line.lru = self._tick
        return line

    def _pick_victim(
        self, cache_set: list[CacheLine], keep: Sequence[Container[int]]
    ) -> CacheLine:
        """LRU victim, preferring a line whose block is in none of the
        *keep* sets; when every line is kept, the LRU kept line."""
        victim: Optional[CacheLine] = None
        fallback: Optional[CacheLine] = None
        for line in cache_set:
            for blocks in keep:
                if line.block in blocks:
                    if fallback is None or line.lru < fallback.lru:
                        fallback = line
                    break
            else:
                if victim is None or line.lru < victim.lru:
                    victim = line
        return fallback if victim is None else victim

    def insert(
        self,
        block: int,
        writable: bool,
        keep: Sequence[Container[int]] = (),
    ) -> tuple[CacheLine, Optional[CacheLine]]:
        """Insert (or upgrade) *block*; return ``(line, evicted_line)``.

        A full set evicts its LRU line, skipping lines whose block is
        in one of the *keep* sets unless every line is (the L1 keeps
        its core's speculative blocks; the fabric then spills the
        victim to the permissions-only cache, or declares overflow).
        """
        existing = self._lines.get(block)
        if existing is not None:
            self._tick += 1
            existing.lru = self._tick
            existing.writable = existing.writable or writable
            return existing, None

        index = block % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = []
        evicted: Optional[CacheLine] = None
        if len(cache_set) >= self.assoc:
            evicted = self._pick_victim(cache_set, keep)
            cache_set.remove(evicted)
            del self._lines[evicted.block]
            self.evictions += 1

        line = CacheLine(block=block, writable=writable)
        self._touch(line)
        cache_set.append(line)
        self._lines[block] = line
        return line, evicted

    # -- invalidation / downgrade ------------------------------------------------
    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Drop *block*; return the removed line, or None if absent."""
        line = self._lines.pop(block, None)
        if line is not None:
            index = block % self.num_sets
            cache_set = self._sets[index]
            cache_set.remove(line)
            if not cache_set:
                del self._sets[index]
        return line

    def downgrade(self, block: int) -> None:
        """Drop write permission for *block* (block stays readable)."""
        line = self.lookup(block, touch=False)
        if line is not None:
            line.writable = False

    # -- introspection --------------------------------------------------------
    def resident_blocks(self) -> list[int]:
        return sorted(self._lines)

    def __contains__(self, block: int) -> bool:
        return block in self._lines


class PermissionsOnlyCache(SetAssocCache):
    """Holds permissions for blocks spilled from the L1 mid-transaction.

    Structurally identical to a data cache but conceptually data-less;
    because every cache here is metadata-only, the distinction is purely
    semantic.  4 KB, 4-way in the paper's configuration (Table 1) — but
    each entry covers a block with just a couple of metadata bits, so
    its *reach* is far larger than a 4 KB data cache (this is the
    property OneTM exploits).
    """

    # Each permissions-only entry is ~1 byte of metadata versus a 64-byte
    # data line, so a 4KB structure covers 4096 blocks (256KB of data).
    METADATA_BYTES_PER_ENTRY = 1

    def __init__(
        self, size_bytes: int, assoc: int, block_size: int = 64
    ) -> None:
        entries = size_bytes // self.METADATA_BYTES_PER_ENTRY
        super().__init__(
            size_bytes=entries * block_size,
            assoc=assoc,
            block_size=block_size,
        )
