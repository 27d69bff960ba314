"""Bump allocator behaviour."""

import pytest

from repro.mem.address import BLOCK_SIZE, block_of
from repro.mem.allocator import BumpAllocator


class TestBumpAllocator:
    def test_never_returns_zero(self):
        alloc = BumpAllocator()
        assert alloc.alloc(8) > 0

    def test_allocations_do_not_overlap(self):
        alloc = BumpAllocator()
        spans = []
        for size in (8, 24, 64, 3, 100):
            addr = alloc.alloc(size)
            spans.append((addr, addr + size))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_alignment(self):
        alloc = BumpAllocator()
        alloc.alloc(3)
        assert alloc.alloc(8, align=64) % 64 == 0
        assert alloc.alloc(8, align=16) % 16 == 0

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            BumpAllocator().alloc(8, align=12)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            BumpAllocator().alloc(0)

    def test_alloc_block_is_isolated(self):
        alloc = BumpAllocator()
        a = alloc.alloc_block(16)
        b = alloc.alloc(8)
        assert a % BLOCK_SIZE == 0
        assert block_of(a) != block_of(b)

    def test_start_must_be_positive(self):
        with pytest.raises(ValueError):
            BumpAllocator(start=0)
