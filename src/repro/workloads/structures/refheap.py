"""A heap of reference-counted objects (the cpython model).

CPython stores a reference count in every object header and updates it
on *every* object access; hot singletons (``None``, ``True``, small
ints, interned strings) are incref'd/decref'd by essentially every
bytecode block.  The paper identifies these updates as the conflict
that flattens a GIL-elided cpython on every HTM — and as perfectly
repairable: the count is loaded, adjusted by a constant, stored, and
(almost) never branches.

Objects are 16 bytes (refcount 8B | payload 8B), four to a cache
block, so unrelated objects also exhibit false sharing — which
value-based tracking absorbs and eager conflict detection does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.program import Assembler
from repro.isa.registers import R5, R6
from repro.mem.allocator import BumpAllocator
from repro.mem.memory import MainMemory


@dataclass
class SimRefHeap:
    memory: MainMemory
    alloc: BumpAllocator
    nobjects: int
    initial_refcount: int = 1
    object_addrs: list[int] = field(default_factory=list)
    #: generation-time tally: net refcount delta per object index
    net_delta: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        base = self.alloc.alloc(self.nobjects * 16, align=64)
        self.object_addrs = [base + 16 * i for i in range(self.nobjects)]
        for addr in self.object_addrs:
            self.memory.write(addr, self.initial_refcount)
            self.memory.write(addr + 8, 0)

    # ------------------------------------------------------------------
    def emit_incref(self, asm: Assembler, obj: int) -> None:
        addr = self.object_addrs[obj]
        self.net_delta[obj] = self.net_delta.get(obj, 0) + 1
        asm.load(R5, addr)
        asm.addi(R5, R5, 1)
        asm.store(R5, addr)

    def emit_decref(self, asm: Assembler, obj: int) -> None:
        addr = self.object_addrs[obj]
        self.net_delta[obj] = self.net_delta.get(obj, 0) - 1
        asm.load(R5, addr)
        asm.subi(R5, R5, 1)
        asm.store(R5, addr)

    def emit_payload_read(self, asm: Assembler, obj: int) -> None:
        asm.load(R6, self.object_addrs[obj] + 8)

    # ------------------------------------------------------------------
    def validate(self, memory: MainMemory) -> tuple[bool, str]:
        """Final refcounts must equal initial + net generated delta."""
        for obj, addr in enumerate(self.object_addrs):
            expected = self.initial_refcount + self.net_delta.get(obj, 0)
            actual = memory.read(addr)
            if actual != expected:
                return False, (
                    f"object {obj}: refcount {actual} != {expected}"
                )
        return True, "refcounts balanced"
