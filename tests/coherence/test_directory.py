"""Coherence fabric: latencies, invalidations, speculative sets."""

import re
from pathlib import Path

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.sim.config import small_test_config

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def fabric():
    return CoherenceFabric(small_test_config(ncores=4), ncores=4)


CFG = small_test_config(ncores=4)
L2 = CFG.l2_hit_cycles
HOP = CFG.hop_cycles
DRAM = CFG.dram_cycles


class TestLatencies:
    def test_cold_miss_goes_to_dram(self, fabric):
        outcome = fabric.acquire(0, 100, write=False)
        assert outcome.latency == L2 + 2 * HOP + DRAM

    def test_l1_hit_after_fetch(self, fabric):
        fabric.acquire(0, 100, write=False)
        outcome = fabric.acquire(0, 100, write=False)
        assert outcome.latency == 1
        assert outcome.l1_hit

    def test_remote_fetch_is_cache_to_cache(self, fabric):
        fabric.acquire(0, 100, write=False)
        outcome = fabric.acquire(1, 100, write=False)
        assert outcome.latency == L2 + 3 * HOP

    def test_upgrade_miss(self, fabric):
        fabric.acquire(0, 100, write=False)
        outcome = fabric.acquire(0, 100, write=True)
        assert outcome.latency == L2 + 2 * HOP

    def test_write_hit_in_modified_state(self, fabric):
        fabric.acquire(0, 100, write=True)
        outcome = fabric.acquire(0, 100, write=True)
        assert outcome.latency == 1


class TestInvalidation:
    def test_write_invalidates_sharers(self, fabric):
        for core in (0, 1, 2):
            fabric.acquire(core, 100, write=False)
        outcome = fabric.acquire(3, 100, write=True)
        assert set(outcome.invalidated) == {0, 1, 2}
        assert fabric.holders_of(100) == {3}
        assert fabric.owner_of(100) == 3
        # The sharers' next access misses again.
        assert fabric.acquire(0, 100, write=False).latency > 1

    def test_read_downgrades_owner(self, fabric):
        fabric.acquire(0, 100, write=True)
        outcome = fabric.acquire(1, 100, write=False)
        assert outcome.invalidated == (0,)
        assert fabric.owner_of(100) is None
        # Former owner retains a readable copy.
        assert fabric.acquire(0, 100, write=False).latency == 1


class TestSpeculativeBits:
    def test_mark_and_conflict_detection(self, fabric):
        fabric.mark_spec(0, 100, write=False)
        fabric.mark_spec(1, 100, write=True)
        # External write conflicts with readers and writers.
        assert fabric.probe(2, 100, write=True) == {0, 1}
        # External read conflicts only with writers.
        assert fabric.probe(2, 100, write=False) == {1}
        # A core never conflicts with itself.
        assert fabric.probe(1, 100, write=True) == {0}

    def test_clear_spec_removes_all(self, fabric):
        fabric.mark_spec(0, 100, write=False)
        fabric.mark_spec(0, 101, write=True)
        fabric.clear_spec(0)
        assert fabric.probe(1, 100, write=True) is None
        assert fabric.probe(1, 101, write=False) is None
        assert not fabric.is_spec(0, 100)

    def test_footprint_counts_unique_blocks(self, fabric):
        fabric.mark_spec(0, 100, write=False)
        fabric.mark_spec(0, 100, write=True)
        fabric.mark_spec(0, 101, write=True)
        caches = fabric.cores[0]
        assert caches.spec_read | caches.spec_written == {100, 101}
        assert fabric.is_spec(0, 100) and fabric.is_spec(0, 101)


class TestEncapsulation:
    def test_no_private_fabric_reachins_outside_coherence(self):
        """Conflicts are asked through ``probe`` and directory state is
        changed through fabric methods, so the representation can change
        inside ``coherence/`` without a caller noticing."""
        pattern = re.compile(
            r"\bfabric\s*\.\s*_\w"
            r"|\.\s*_(?:spec_writers|spec_readers|owner|holders)\b"
        )
        offenders = []
        for path in SRC.rglob("*.py"):
            if path.parent.name == "coherence":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    rel = path.relative_to(SRC)
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "private fabric state reached from outside coherence/:\n"
            + "\n".join(offenders)
        )


class TestOverflow:
    def test_spec_eviction_spills_to_permissions_cache(self):
        config = small_test_config(
            ncores=1, l1_bytes=128, l1_assoc=1, perm_cache_bytes=64
        )
        fabric = CoherenceFabric(config, ncores=1)
        # Fill one L1 set with a speculative line, then evict it.
        fabric.acquire(0, 0, write=False)
        fabric.mark_spec(0, 0, write=False)
        # Same set (2 sets, so blocks 0 and 2 collide).
        fabric.acquire(0, 2, write=False)
        assert fabric.perm_cache_spills == 1
        assert not fabric.overflowed  # permissions cache absorbed it
        # Conflict detection still sees the spilled block.
        assert fabric.probe(0, 0, write=True) is None
        assert fabric.is_spec(0, 0)

    def test_spill_entry_lives_as_long_as_the_transaction(self):
        """Ending the transaction frees its permissions-only entries, so
        the next transaction's spill finds room: no stale entry is ever
        a victim, and every permissions-only eviction is an overflow."""
        config = small_test_config(
            ncores=2, l1_bytes=64, l1_assoc=1, perm_cache_bytes=1,
            perm_cache_assoc=1,
        )
        fabric = CoherenceFabric(config, ncores=2)
        fabric.acquire(0, 0, write=False)
        fabric.mark_spec(0, 0, write=False)
        fabric.acquire(0, 1, write=False)  # spills block 0
        assert fabric.cores[0].perm.resident_blocks() == [0]
        fabric.clear_spec(0)
        assert fabric.cores[0].perm.resident_blocks() == []
        fabric.mark_spec(0, 1, write=True)
        fabric.acquire(0, 2, write=False)  # spills block 1, no victim
        assert fabric.perm_cache_spills == 2
        assert fabric.overflow_events == 0
        fabric.mark_spec(0, 2, write=False)
        fabric.acquire(0, 3, write=False)  # spills block 2: evicts 1
        assert fabric.overflow_events == 1 == fabric.cores[0].perm.evictions
        assert fabric.overflowed == {0}
