"""Memory system: flat main memory, allocator, and caches.

The data always lives in :class:`~repro.mem.memory.MainMemory` (eager
version management keeps speculative stores in place, guarded by the
undo log; lazy version management holds them in a
:class:`~repro.mem.memory.WriteBuffer` until commit).  Caches model
only tags, coherence permissions and LRU state — they are used for
latency charging and capacity (eviction, spill, overflow), never as a
second copy of the data.
"""

from repro.mem.address import (
    BLOCK_SIZE,
    WORD_SIZE,
    block_base,
    block_of,
    block_offset,
    blocks_spanned,
    word_index,
)
from repro.mem.allocator import BumpAllocator
from repro.mem.cache import CacheLine, PermissionsOnlyCache, SetAssocCache
from repro.mem.memory import MainMemory, WriteBuffer, narrow

__all__ = [
    "BLOCK_SIZE",
    "WORD_SIZE",
    "block_of",
    "block_base",
    "block_offset",
    "blocks_spanned",
    "word_index",
    "MainMemory",
    "WriteBuffer",
    "narrow",
    "BumpAllocator",
    "SetAssocCache",
    "PermissionsOnlyCache",
    "CacheLine",
]
