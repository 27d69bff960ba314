"""Directory-based coherence protocol with latency charging.

The fabric is the single source of truth for:

* which cores hold a block, and who (if anyone) holds it exclusively;
* per-core L1 / L2 / permissions-only caches (capacity modeling);
* what each core's transaction speculatively read and wrote.

The last is recorded once, in the per-core ``spec_read``/``spec_written``
sets; they stand for the paper's per-line speculative bits (§2), and
they decide everything those bits decide:

* conflicts, through :meth:`CoherenceFabric.probe` (the one conflict
  question every TM system asks), which reads the sets through their
  one derived structure, the ``_spec_readers``/``_spec_writers``
  reverse index, so a probe costs two dict lookups instead of a walk
  over every core;
* eviction: the L1 keeps a line whose block is in its core's sets
  unless the whole set is speculative;
* spills: an evicted speculative line takes an entry in the
  permissions-only cache (OneTM), held until the transaction ends, so
  any permissions-only victim is an overflow.

The sets outlive L1 evictions and overflows, so losing a line never
loses a conflict.

Latency model (Table 1): L1 hit 1 cycle; L2 hit 10 cycles; a directory
hop costs 20 cycles; DRAM lookup costs 100 cycles.  A miss serviced by
a remote cache costs ``L2 + 3 hops`` (request to directory, forward to
owner, data to requester); a miss serviced by memory costs
``L2 + 2 hops + DRAM``; an upgrade (S→M) costs ``L2 + 2 hops``.

The HTM layer resolves conflicts *before* asking the fabric to perform
an access, so by the time :meth:`CoherenceFabric.acquire` invalidates a
remote copy, any remote transaction that had the block in its sets has
aborted.  A copy RETCON only value-tracks is not in the sets: the
writer steals it, and the victim revalidates and repairs at commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mem.address import BLOCK_SIZE
from repro.mem.cache import PermissionsOnlyCache, SetAssocCache


@dataclass(slots=True)
class AccessOutcome:
    """Result of performing a coherence access."""

    latency: int
    #: remote cores whose copy was invalidated (write) or downgraded (read)
    invalidated: tuple[int, ...] = ()
    #: True if this access hit in the local L1 with sufficient permission
    l1_hit: bool = False


#: shared outcome for the L1-hit fast path; never mutate
_L1_HIT = AccessOutcome(latency=1, l1_hit=True)


@dataclass
class _CoreCaches:
    l1: SetAssocCache
    l2: SetAssocCache
    perm: PermissionsOnlyCache
    #: blocks speculatively read / written by the current transaction
    spec_read: set[int] = field(default_factory=set)
    spec_written: set[int] = field(default_factory=set)


class CoherenceFabric:
    """Directory + per-core cache hierarchy for an N-core machine."""

    def __init__(self, config, ncores: int) -> None:
        self.config = config
        self.ncores = ncores
        self.cores = [
            _CoreCaches(
                l1=SetAssocCache(
                    config.l1_bytes, config.l1_assoc, BLOCK_SIZE
                ),
                l2=SetAssocCache(
                    config.l2_bytes, config.l2_assoc, BLOCK_SIZE
                ),
                perm=PermissionsOnlyCache(
                    config.perm_cache_bytes,
                    config.perm_cache_assoc,
                    BLOCK_SIZE,
                ),
            )
            for _ in range(ncores)
        ]
        # Directory state: which cores hold each block; exclusive owner.
        self._holders: dict[int, set[int]] = {}
        self._owner: dict[int, Optional[int]] = {}
        # Reverse index: the one structure derived from the per-core
        # speculative sets, kept so probe() is two dict lookups (an
        # emptied entry is deleted).
        self._spec_readers: dict[int, set[int]] = {}
        self._spec_writers: dict[int, set[int]] = {}
        #: cores whose transaction lost speculative tracking to capacity
        self.overflowed: set[int] = set()
        #: count of speculative-line spills into the permissions-only cache
        self.perm_cache_spills = 0
        #: count of genuine overflows (permissions-only cache exhausted too)
        self.overflow_events = 0
        #: interned no-invalidation AccessOutcomes, keyed by latency
        self._plain_outcomes: dict[int, AccessOutcome] = {}

    # ------------------------------------------------------------------
    # Speculative-set bookkeeping (conflict detection substrate)
    # ------------------------------------------------------------------
    def mark_spec(self, core: int, block: int, write: bool) -> None:
        """Record that *core*'s transaction read or wrote *block*."""
        caches = self.cores[core]
        if write:
            caches.spec_written.add(block)
            reverse = self._spec_writers
        else:
            caches.spec_read.add(block)
            reverse = self._spec_readers
        # get-or-create without allocating a default set per call (this
        # runs once per in-transaction block access).
        cores = reverse.get(block)
        if cores is None:
            reverse[block] = {core}
        else:
            cores.add(core)

    def clear_spec(self, core: int) -> None:
        """End *core*'s transaction (commit or abort): empty its sets
        and drop the permissions-only entries its spills took."""
        caches = self.cores[core]
        perm = caches.perm
        for block in caches.spec_read | caches.spec_written:
            self._discard_reverse(core, block)
            perm.invalidate(block)
        caches.spec_read.clear()
        caches.spec_written.clear()
        self.overflowed.discard(core)

    def _discard_reverse(self, core: int, block: int) -> None:
        for reverse in (self._spec_readers, self._spec_writers):
            cores = reverse.get(block)
            if cores is not None:
                cores.discard(core)
                if not cores:
                    del reverse[block]

    def probe(self, core: int, block: int, write: bool) -> Optional[set[int]]:
        """Remote cores whose speculative sets conflict with this access,
        or None when there are none.

        A conflict is an external write request to a speculatively-read
        block, or any external request to a speculatively-written block
        (paper §2).  Every eager access and every stall retry asks this,
        so the clean answer allocates nothing; a conflict returns a
        fresh set the caller may keep or extend.
        """
        conflicts = None
        writers = self._spec_writers.get(block)
        if writers is not None and (len(writers) > 1 or core not in writers):
            conflicts = set(writers)
        if write:
            readers = self._spec_readers.get(block)
            if readers is not None and (len(readers) > 1 or core not in readers):
                conflicts = set(readers) if conflicts is None else conflicts | readers
        if conflicts is not None:
            conflicts.discard(core)
        return conflicts

    def write_hit(self, core: int, block: int) -> None:
        """Directory side of a write that hit a writable L1 line: *core*
        is the block's exclusive owner."""
        if self._owner.get(block) != core:
            # Exclusive in L1 but directory stale — cannot happen.
            self._owner[block] = core

    def is_spec(self, core: int, block: int) -> bool:
        caches = self.cores[core]
        return block in caches.spec_read or block in caches.spec_written

    # ------------------------------------------------------------------
    # Coherence accesses
    # ------------------------------------------------------------------
    def acquire(self, core: int, block: int, write: bool) -> AccessOutcome:
        """Obtain read or write permission for *block* on *core*.

        Performs all remote invalidations/downgrades, updates directory
        state and local caches, and returns the latency.
        """
        cfg = self.config
        caches = self.cores[core]
        line = caches.l1.lookup(block)

        if line is not None and (not write or line.writable):
            # L1 hit with sufficient permission: the hottest access by
            # far, so it returns a shared (treat-as-immutable) outcome
            # and touches no directory structures.  A present L1 line
            # implies a prior acquire, so the holders entry exists.
            if write:
                self.write_hit(core, block)
            return _L1_HIT

        holders = self._holders.get(block)
        if holders is None:
            holders = set()
            self._holders[block] = holders
        owner = self._owner.get(block)
        invalidated: list[int] = []
        if line is not None and write:
            # Upgrade miss: S -> M through the directory.
            latency = cfg.l2_hit_cycles + 2 * cfg.hop_cycles
            invalidated = self._invalidate_remotes(core, block)
            line.writable = True
            holders.clear()
            holders.add(core)
            self._owner[block] = core
            return AccessOutcome(latency=latency, invalidated=tuple(invalidated))

        # L1 miss: check the private L2.
        l2_line = caches.l2.lookup(block)
        if l2_line is not None and (not write or l2_line.writable):
            latency = cfg.l2_hit_cycles
        elif l2_line is not None and write:
            # In L2 but needs an upgrade.
            latency = cfg.l2_hit_cycles + 2 * cfg.hop_cycles
        else:
            # Miss in the private hierarchy: go to the directory.
            remote = (holders - {core}) or (
                {owner} if owner is not None and owner != core else set()
            )
            if remote:
                latency = cfg.l2_hit_cycles + 3 * cfg.hop_cycles
            else:
                latency = (
                    cfg.l2_hit_cycles
                    + 2 * cfg.hop_cycles
                    + cfg.dram_cycles
                )

        if write:
            invalidated = self._invalidate_remotes(core, block)
            holders.clear()
            holders.add(core)
            self._owner[block] = core
        else:
            prev_owner = self._owner.get(block)
            if prev_owner is not None and prev_owner != core:
                self._downgrade(prev_owner, block)
                invalidated.append(prev_owner)
                self._owner[block] = None
            holders.add(core)

        self._install(core, block, writable=write)
        if not invalidated:
            # Miss without remote copies: intern the outcome per
            # latency (outcomes are treat-as-immutable, like _L1_HIT).
            outcome = self._plain_outcomes.get(latency)
            if outcome is None:
                outcome = AccessOutcome(latency=latency)
                self._plain_outcomes[latency] = outcome
            return outcome
        return AccessOutcome(latency=latency, invalidated=tuple(invalidated))

    def _invalidate_remotes(self, core: int, block: int) -> list[int]:
        holders = self._holders.get(block, set())
        owner = self._owner.get(block)
        targets = set(holders)
        if owner is not None:
            targets.add(owner)
        targets.discard(core)
        for other in targets:
            remote = self.cores[other]
            remote.l1.invalidate(block)
            remote.l2.invalidate(block)
            remote.perm.invalidate(block)
        if owner is not None and owner != core:
            self._owner[block] = None
        return sorted(targets)

    def _downgrade(self, core: int, block: int) -> None:
        caches = self.cores[core]
        caches.l1.downgrade(block)
        caches.l2.downgrade(block)

    def _install(self, core: int, block: int, writable: bool) -> None:
        caches = self.cores[core]
        _, l1_victim = caches.l1.insert(
            block, writable, (caches.spec_read, caches.spec_written)
        )
        caches.l2.insert(block, writable=writable)
        if l1_victim is not None:
            self._handle_l1_eviction(core, l1_victim)

    def _handle_l1_eviction(self, core: int, victim) -> None:
        """Spill an evicted speculative L1 line to the permissions-only
        cache (OneTM); a full permissions-only set is an overflow."""
        if not self.is_spec(core, victim.block):
            return
        self.perm_cache_spills += 1
        _, perm_victim = self.cores[core].perm.insert(
            victim.block, writable=victim.writable
        )
        if perm_victim is not None:
            # Lost speculative tracking entirely: an overflow (OneTM
            # would serialize this transaction; see htm.system).
            self.overflow_events += 1
            self.overflowed.add(core)

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def holders_of(self, block: int) -> set[int]:
        return set(self._holders.get(block, ()))

    def owner_of(self, block: int) -> Optional[int]:
        return self._owner.get(block)
