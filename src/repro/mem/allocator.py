"""A bump allocator for laying out simulated data structures.

Workload generators use the allocator to place hashtable buckets,
objects, tree nodes, etc. in the simulated address space.  Whether two
hot fields share a cache block matters a great deal to the results
(false sharing is one of the effects lazy-vb removes), so the allocator
exposes both packed allocation and block-aligned, block-padded
allocation.
"""

from __future__ import annotations

from repro.mem.address import BLOCK_SIZE


class BumpAllocator:
    """Monotonic allocator over the simulated address space."""

    def __init__(self, start: int = BLOCK_SIZE) -> None:
        # Start past address 0 so "null pointer" (0) is never a valid
        # allocation.
        if start <= 0:
            raise ValueError("allocator must start above address 0")
        self._next = start

    @property
    def watermark(self) -> int:
        """The next address that would be handed out."""
        return self._next

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate *nbytes* with the given alignment; return the address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        addr = (self._next + align - 1) & ~(align - 1)
        self._next = addr + nbytes
        return addr

    def alloc_block(self, nbytes: int = BLOCK_SIZE) -> int:
        """Allocate block-aligned storage padded to whole blocks.

        Nothing else will ever share a cache block with this
        allocation — used for data that must not experience false
        sharing (e.g. per-thread private areas).
        """
        addr = self.alloc(nbytes, align=BLOCK_SIZE)
        # Pad to the end of the last block so the next allocation
        # starts on a fresh block.
        end = addr + nbytes
        rounded = (end + BLOCK_SIZE - 1) & ~(BLOCK_SIZE - 1)
        self._next = rounded
        return addr
