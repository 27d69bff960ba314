"""Set-associative cache model: LRU, caller-kept victim policy."""

import pytest

from repro.mem.cache import PermissionsOnlyCache, SetAssocCache


def make_cache(sets=2, assoc=2):
    return SetAssocCache(
        size_bytes=sets * assoc * 64, assoc=assoc, block_size=64
    )


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(5) is None
        cache.insert(5, writable=False)
        line = cache.lookup(5)
        assert line is not None and line.block == 5

    def test_insert_upgrades_permission(self):
        cache = make_cache()
        cache.insert(5, writable=False)
        assert not cache.lookup(5).writable
        cache.insert(5, writable=True)
        assert cache.lookup(5).writable

    def test_insert_never_downgrades(self):
        cache = make_cache()
        cache.insert(5, writable=True)
        cache.insert(5, writable=False)
        assert cache.lookup(5).writable


class TestReplacement:
    def test_lru_eviction(self):
        cache = make_cache(sets=1, assoc=2)
        cache.insert(0, False)
        cache.insert(1, False)
        cache.lookup(0)  # 1 becomes LRU
        _, evicted = cache.insert(2, False)
        assert evicted is not None and evicted.block == 1
        assert 0 in cache and 2 in cache and 1 not in cache

    def test_speculative_lines_are_protected(self):
        cache = make_cache(sets=1, assoc=2)
        cache.insert(0, False)
        cache.insert(1, False)
        # 0 is LRU but kept, so the victim is 1.
        _, evicted = cache.insert(2, False, keep=({0},))
        assert evicted.block == 1

    def test_any_keep_set_protects(self):
        """The fabric passes a core's read and written sets separately;
        membership in either keeps a line."""
        cache = make_cache(sets=1, assoc=3)
        for block in (0, 1, 2):
            cache.insert(block, False)
        _, evicted = cache.insert(3, False, keep=({0}, {1}))
        assert evicted.block == 2

    def test_all_speculative_set_evicts_speculative(self):
        cache = make_cache(sets=1, assoc=2)
        for block in (0, 1):
            cache.insert(block, False)
        _, evicted = cache.insert(2, False, keep=({0, 1},))
        assert evicted is not None and evicted.block == 0
        assert cache.resident_blocks() == [1, 2]

    def test_all_speculative_set_evicts_lru_speculative(self):
        """Regression: a set where *every* line is kept must pick the
        LRU kept victim (spill path), never raise."""
        cache = make_cache(sets=1, assoc=4)
        for block in range(4):
            cache.insert(block, False)
        cache.lookup(0)  # block 1 is now the LRU kept line
        line, evicted = cache.insert(4, False, keep=(set(), set(range(4))))
        assert line.block == 4
        assert evicted is not None and evicted.block == 1
        assert cache.resident_blocks() == [0, 2, 3, 4]

    def test_victim_order_through_every_rule(self):
        """One 2-way set through LRU, the keep preference, the
        all-kept fallback and an invalidate in the middle; the other
        set is never touched and never built."""
        cache = make_cache(sets=2, assoc=2)

        def victim(block, keep=()):
            _, evicted = cache.insert(block, False, keep=keep)
            return None if evicted is None else evicted.block

        cache.insert(0, False)
        cache.insert(2, False)
        cache.lookup(0)
        assert victim(4) == 2                  # LRU
        assert victim(6, keep=({0},)) == 4     # 0 is LRU but kept
        cache.lookup(0)
        # every line kept: the LRU kept line, second in fill order
        assert victim(8, keep=({0, 6},)) == 6
        assert cache.invalidate(0).block == 0
        assert victim(10) is None              # a free way
        assert victim(12) == 8                 # LRU
        assert [line.block for line in cache._sets[0]] == [10, 12]
        assert list(cache._sets) == [0]
        assert cache.evictions == 4

    def test_an_emptied_set_leaves_no_entry(self):
        cache = make_cache(sets=2, assoc=2)
        for block in (0, 1, 2):
            cache.insert(block, True)
        cache.invalidate(1)
        assert list(cache._sets) == [0]
        cache.invalidate(0)
        assert [line.block for line in cache._sets[0]] == [2]
        cache.invalidate(2)
        assert cache._sets == {} and cache.resident_blocks() == []

    def test_misconfigured_associativity_is_rejected(self):
        with pytest.raises(ValueError, match="associativity"):
            make_cache(sets=1, assoc=0)


class TestInvalidation:
    def test_invalidate_returns_line(self):
        cache = make_cache()
        cache.insert(7, True)
        removed = cache.invalidate(7)
        assert removed.block == 7 and removed.writable
        assert 7 not in cache

    def test_invalidate_missing_is_noop(self):
        assert make_cache().invalidate(9) is None

    def test_downgrade_drops_write_permission(self):
        cache = make_cache()
        cache.insert(7, True)
        cache.downgrade(7)
        assert 7 in cache
        assert not cache.lookup(7).writable


class TestPermissionsOnlyCache:
    def test_reach_exceeds_data_cache(self):
        # 4KB of 1-byte metadata entries covers 4096 blocks.
        perm = PermissionsOnlyCache(4 * 1024, assoc=4, block_size=64)
        data = SetAssocCache(4 * 1024, assoc=4, block_size=64)
        assert perm.num_sets * perm.assoc == 4096
        assert data.num_sets * data.assoc == 64
