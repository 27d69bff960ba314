"""Coherence protocol invariants under random access sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import CoherenceFabric
from repro.sim.config import small_test_config

NCORES = 4
BLOCKS = list(range(8))

accesses = st.lists(
    st.tuples(
        st.integers(0, NCORES - 1),
        st.sampled_from(BLOCKS),
        st.booleans(),
    ),
    max_size=60,
)


@given(sequence=accesses)
@settings(max_examples=150, deadline=None)
def test_single_writer_multiple_readers(sequence):
    """After any access sequence: a block's owner (exclusive holder)
    exists only when it is the *sole* holder, and writable L1 lines
    exist only on the owner."""
    fabric = CoherenceFabric(small_test_config(ncores=NCORES), NCORES)
    for core, block, write in sequence:
        fabric.acquire(core, block, write)
    for block in BLOCKS:
        owner = fabric.owner_of(block)
        holders = fabric.holders_of(block)
        if owner is not None:
            assert holders == {owner}
        for core in range(NCORES):
            line = fabric.cores[core].l1.lookup(block, touch=False)
            if line is not None and line.writable:
                assert owner == core


@given(sequence=accesses)
@settings(max_examples=100, deadline=None)
def test_latency_is_always_positive_and_bounded(sequence):
    config = small_test_config(ncores=NCORES)
    fabric = CoherenceFabric(config, NCORES)
    worst = (
        config.l2_hit_cycles + 3 * config.hop_cycles + config.dram_cycles
    )
    for core, block, write in sequence:
        outcome = fabric.acquire(core, block, write)
        assert 1 <= outcome.latency <= worst


@given(sequence=accesses)
@settings(max_examples=100, deadline=None)
def test_repeat_access_is_an_l1_hit(sequence):
    """Immediately repeating any access hits the L1 (no state was left
    inconsistent by the first one)."""
    fabric = CoherenceFabric(small_test_config(ncores=NCORES), NCORES)
    for core, block, write in sequence:
        fabric.acquire(core, block, write)
        again = fabric.acquire(core, block, write)
        assert again.latency == 1, (core, block, write)


@given(
    sequence=accesses,
    spec=st.lists(
        st.tuples(
            st.integers(0, NCORES - 1),
            st.sampled_from(BLOCKS),
            st.booleans(),
        ),
        max_size=20,
    ),
)
@settings(max_examples=100, deadline=None)
def test_spec_bit_bookkeeping_is_consistent(sequence, spec):
    """The reverse index that probe() reads always agrees with the
    per-core speculative sets, and clearing one core empties its sets
    without disturbing the others'."""
    fabric = CoherenceFabric(small_test_config(ncores=NCORES), NCORES)
    for core, block, write in spec:
        fabric.mark_spec(core, block, write)
    for core, block, write in sequence:
        fabric.acquire(core, block, write)
    for block in BLOCKS:
        check_probe(fabric, block)
    others = [
        (set(c.spec_read), set(c.spec_written)) for c in fabric.cores[1:]
    ]
    fabric.clear_spec(0)
    assert not fabric.cores[0].spec_read
    assert not fabric.cores[0].spec_written
    assert others == [
        (c.spec_read, c.spec_written) for c in fabric.cores[1:]
    ]
    for block in BLOCKS:
        check_probe(fabric, block)


def brute_force_probe(fabric, core, block, write):
    """The paper's §2 conflict rule read straight off the per-core sets."""
    found = {
        other
        for other in range(NCORES)
        if other != core
        and (
            block in fabric.cores[other].spec_written
            or (write and block in fabric.cores[other].spec_read)
        )
    }
    return found or None


def check_probe(fabric, block):
    for core in range(NCORES):
        for write in (False, True):
            assert fabric.probe(core, block, write) == brute_force_probe(
                fabric, core, block, write
            ), (core, block, write)


cores = st.integers(0, NCORES - 1)
blocks = st.sampled_from(BLOCKS)
fabric_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mark_spec"), cores, blocks, st.booleans()),
        st.tuples(st.just("clear_spec"), cores),
        st.tuples(st.just("acquire"), cores, blocks, st.booleans()),
    ),
    max_size=60,
)


@given(ops=fabric_ops)
@settings(max_examples=150, deadline=None)
def test_probe_matches_brute_force(ops):
    """probe(core, block, write) is exactly the set of remote cores
    whose per-core speculative sets conflict, None when empty.  A
    one-line L1 with a one-entry permissions cache makes acquires
    evict, spill and overflow speculative lines, which must not move
    the answer."""
    config = small_test_config(
        ncores=NCORES, l1_bytes=64, l1_assoc=1, perm_cache_bytes=1,
        perm_cache_assoc=1,
    )
    fabric = CoherenceFabric(config, NCORES)
    for name, *args in ops:
        getattr(fabric, name)(*args)
        if name != "clear_spec":
            check_probe(fabric, args[1])
    for block in BLOCKS:
        check_probe(fabric, block)


# Two cores on four blocks, so a short sequence fills a core's L1 set
# with its own speculative lines and ends its transaction.
crowded_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mark_spec"), st.integers(0, 1), st.integers(0, 3),
                  st.booleans()),
        st.tuples(st.just("clear_spec"), st.integers(0, 1)),
        st.tuples(st.just("acquire"), st.integers(0, 1), st.integers(0, 3),
                  st.booleans()),
    ),
    max_size=40,
)


@given(ops=crowded_ops, l1_assoc=st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_spills_are_decided_by_the_speculative_sets(ops, l1_assoc):
    """The per-core sets alone decide eviction, spills and overflows.

    A one-set L1 (one line, or two ways so the victim is a choice) and
    a one-entry permissions-only cache make acquires evict, spill and
    overflow.  After every step:

    * every resident permissions-only block is in its core's sets (an
      entry lives exactly as long as the spill it records);
    * so every permissions-only eviction is an overflow;
    * an acquire evicted a speculative L1 line only if every line of
      its set was speculative.
    """
    config = small_test_config(
        ncores=NCORES, l1_bytes=64 * l1_assoc, l1_assoc=l1_assoc,
        perm_cache_bytes=1, perm_cache_assoc=1,
    )
    fabric = CoherenceFabric(config, NCORES)
    for name, *args in ops:
        before = None
        if name == "acquire":
            core = args[0]
            caches = fabric.cores[core]
            before = set(caches.l1.resident_blocks())
            touched = caches.spec_read | caches.spec_written
        getattr(fabric, name)(*args)
        if before is not None:
            evicted = before - set(caches.l1.resident_blocks())
            assert len(evicted) <= 1
            if evicted & touched:
                assert before <= touched, (before, touched)
        for caches in fabric.cores:
            touched_now = caches.spec_read | caches.spec_written
            assert set(caches.perm.resident_blocks()) <= touched_now
        assert (
            sum(c.perm.evictions for c in fabric.cores)
            == fabric.overflow_events
        )
