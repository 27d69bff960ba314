"""The STM slow path: barriers, commit protocol, and the HyTM glue.

:class:`STMMixin` implements a word-based software TM in the style of
TL2/NOrec, executing against the *simulated* memory and coherence
fabric so its costs are charged in the same currency as the hardware
backends':

* **metadata in simulated memory** — the orec table, global version
  clock, and fallback token sit at the fixed addresses of
  :mod:`repro.stm.metadata`; every barrier pays real
  coherence latency for the metadata blocks it touches (and the orec
  table's false sharing is real, four orecs per cache block);
* **instrumented barriers** — each read/write barrier additionally
  charges :data:`READ_BARRIER_INSTRS` / :data:`WRITE_BARRIER_INSTRS`
  extra ISA instructions (1 cycle each at 1 IPC), one fixed point on
  the instrumentation axis of the Brown & Ravi tradeoff;
* **lazy versioning** — transactional stores go to a private
  byte-granular write buffer; memory is untouched until commit, so an
  STM abort needs no rollback;
* **commit-time validation** — the read set is a map orec → version
  sampled at first read; commit revalidates every entry and aborts
  (reason ``"validation"``) on any mismatch, then publishes: write
  buffer → memory, write-set orec bumps, global clock bump.

Hybrid (HyTM) mode adds the synchronization that makes hardware and
software transactions mutually safe:

* hardware transactions **subscribe** to the clock block with a plain
  speculative load at their first access; a writing STM commit dooms
  every subscriber (reason ``"subscription"``) *before* it writes
  back, so a doomed transaction's rollback can never clobber
  committed data;
* hardware commits **publish** their write sets to the orec table
  (version bumps, charged :data:`SUBSCRIBE_INSTRS` each) so software
  validation observes them; non-transactional stores bump orecs too
  (strong isolation);
* the **progressive** variant (Kuznetsov & Ravi) makes the fallback
  pessimistic: it serializes on the fallback token, acquires orec
  *ownership* for everything it touches, dooms conflicting hardware
  speculation at access time, and commits without validation — once
  escalated it structurally cannot abort again (it owns its footprint,
  holds no speculative state the fabric could kill, and skips the
  only self-abort, validation).

The mixin layers over any :class:`~repro.htm.system.BaseTMSystem`
subclass.  Two compositions exist — :class:`STMSystem` over the eager
baseline and :class:`STMRetconSystem` over RETCON/lazy-vb — and the
``stm`` / ``hybrid-*`` / ``progressive`` rows of
:data:`repro.htm.backends.BACKENDS` pick one plus the ``hybrid`` and
``pessimistic_fallback`` settings:

============== ==================== ===================================
name           hardware fast path   fallback
============== ==================== ===================================
stm            (none: always software)
hybrid-retcon  RETCON               optimistic STM (validation aborts)
hybrid-eager   eager baseline       optimistic STM
hybrid-lazy-vb lazy-vb              optimistic STM
progressive    RETCON               pessimistic STM (cannot abort twice)
============== ==================== ===================================

A hybrid escalates to the software path when the hardware gives up —
after ``config.retry_budget`` aborted attempts, or immediately on a
capacity abort (a footprint that overflows the hardware structures
overflows them on every retry).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import CommitPlan
from repro.htm.events import StallRetry
from repro.htm.system import BaseTMSystem, LoadResult, RetconTMSystem
from repro.mem.address import BLOCK_SIZE, block_of
from repro.mem.memory import WriteBuffer
from repro.stm.metadata import (
    CLOCK_ADDR,
    CLOCK_BLOCK,
    TOKEN_ADDR,
    TOKEN_BLOCK,
    orec_addr,
    owner_addr,
)

# Per-operation instrumentation costs, in extra ISA instructions (1
# cycle each at 1 IPC), on top of the coherence latency of touching the
# metadata blocks themselves.
#: read barrier: hash + orec version load + read-set append
READ_BARRIER_INSTRS = 2
#: write barrier: hash + write-buffer insert + write-set append
WRITE_BARRIER_INSTRS = 3
#: commit-time validation, per read-set orec
VALIDATE_INSTRS = 1
#: commit-time publish, per write-set orec (acquire + version bump)
COMMIT_INSTRS = 2
#: HTM-side instrumentation, per event: the begin-time subscription
#: load of the STM clock and, in hybrid mode, each commit-time orec
#: version bump that makes HTM writes visible to STM validation
SUBSCRIBE_INSTRS = 1


@dataclass(slots=True)
class _StmTxn:
    """Per-attempt software transaction state."""

    #: private write buffer (lazy versioning)
    wbuf: WriteBuffer = field(default_factory=WriteBuffer)
    #: optimistic read set: orec version-word addr -> version at first read
    read_orecs: dict[int, int] = field(default_factory=dict)
    #: orecs covering the write set (bumped at publish)
    write_orecs: set[int] = field(default_factory=set)
    #: orecs whose owner word this transaction holds (progressive)
    owned_orecs: set[int] = field(default_factory=set)
    #: instrumentation instructions charged so far (flushed to stats)
    barrier_instrs: int = 0
    #: progressive fallback: own the footprint instead of validating
    pessimistic: bool = False
    #: progressive fallback: holds the global fallback token
    holds_token: bool = False


class STMMixin:
    """Software path + escalation policy, layered over an HTM base.

    * ``hybrid`` — False: every transaction is software (the pure STM
      backend).  True: transactions start on the inherited hardware
      path and escalate per the retry budget / capacity policy.
    * ``pessimistic_fallback`` — the progressive variant's fallback
      (token-serialized, ownership-acquiring, validation-free).
    """

    #: capacity-aborted transactions escalate to the software slow
    #: path (via the recorded doom reason) rather than rerunning under
    #: OneTM overflow serialization — serializing an STM-bound retry
    #: would needlessly conflict it against every hardware txn
    capacity_serializes = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def __init__(
        self,
        *args,
        hybrid: bool = False,
        pessimistic_fallback: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.hybrid = hybrid
        self.pessimistic_fallback = pessimistic_fallback
        ncores = self.config.ncores
        self._stm_txns: list[_StmTxn | None] = [None] * ncores
        #: sticky per-logical-transaction escalation flag: once a
        #: transaction falls back it stays on the software path until
        #: it commits (cleared on the next fresh begin)
        self._escalated = [False] * ncores
        #: core holding the fallback token (progressive), or None
        self._fallback_owner: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle: escalation policy
    # ------------------------------------------------------------------
    def begin(self, core: int, restart: bool = False) -> None:
        if not restart:
            self._escalated[core] = False
        super().begin(core, restart)
        ctx = self.ctx[core]
        if self._stm_elects(core, ctx, restart):
            self._stm_begin(core, ctx)

    def _stm_elects(self, core: int, ctx, restart: bool) -> bool:
        """Does this attempt run on the software path?

        Always, on the pure STM backend.  Hybrid policy: escalate when
        the logical transaction already escalated, when it has
        exhausted its HTM retry budget, or when the hardware aborted it
        for capacity (retrying a transaction whose footprint exceeds
        the hardware structures is futile).
        """
        if not self.hybrid or self._escalated[core]:
            return True
        if ctx.attempts > self.config.retry_budget:
            return True
        return restart and ctx.doom_reason == "capacity"

    def _stm_begin(self, core: int, ctx) -> None:
        ctx.stm = True
        self._stm_txns[core] = _StmTxn(
            pessimistic=self.pessimistic_fallback
        )
        if not self._escalated[core]:
            self._escalated[core] = True
            if self.hybrid:
                # Only count a *fallback* when hardware was tried and
                # gave up; the pure STM backend is software by design.
                self.stats.core(core).stm_fallbacks += 1
                if self.tracer is not None:
                    self._trace("fallback", core, {
                        "attempts": ctx.attempts, "reason": ctx.doom_reason,
                    })

    # ------------------------------------------------------------------
    # Memory operation dispatch
    # ------------------------------------------------------------------
    def load(self, core: int, addr: int, size: int) -> LoadResult:
        ctx = self.ctx[core]
        if ctx.active:
            if ctx.stm:
                return self._stm_load(core, addr, size)
            if self.hybrid and not ctx.subscribed:
                extra = self._subscribe(core)
                result = super().load(core, addr, size)
                return LoadResult(
                    result.value, result.latency + extra, result.sym
                )
        return super().load(core, addr, size)

    def store(self, core, addr, size, value, sym=None) -> int:
        ctx = self.ctx[core]
        if ctx.active:
            if ctx.stm:
                return self._stm_store(core, addr, size, value)
            if self.hybrid and not ctx.subscribed:
                extra = self._subscribe(core)
                return super().store(core, addr, size, value, sym) + extra
            return super().store(core, addr, size, value, sym)
        latency = super().store(core, addr, size, value, sym)
        self._nontx_publish(addr, size)
        return latency

    def _subscribe(self, core: int) -> int:
        """Hardware-side begin instrumentation: speculatively load the
        STM clock block at the transaction's first access, so any
        writing software commit dooms it through the normal eager
        conflict machinery."""
        latency = self._eager_block_access(
            core, CLOCK_BLOCK, False,
            self.fabric.probe(core, CLOCK_BLOCK, False),
        )
        self.stats.core(core).barrier_instrs += SUBSCRIBE_INSTRS
        self.ctx[core].subscribed = True
        return latency + SUBSCRIBE_INSTRS

    def _nontx_publish(self, addr: int, size: int) -> None:
        """Strong isolation: a non-transactional store bumps the orec
        versions of the blocks it touches so concurrent software
        validation observes it.  Bookkeeping-only (no latency): the
        data access itself was already charged."""
        mem = self.memory
        first = addr // BLOCK_SIZE
        last = (addr + size - 1) // BLOCK_SIZE
        for blk in range(first, last + 1):
            orec = orec_addr(blk)
            mem.write(orec, mem.read(orec, 8) + 1, 8)

    # ------------------------------------------------------------------
    # Software barriers
    # ------------------------------------------------------------------
    def _ensure_token(self, core: int, txn: _StmTxn) -> int:
        """Progressive fallback serialization: claim the global token
        before the first data access; wait (StallRetry) while another
        fallback holds it."""
        if not txn.pessimistic or txn.holds_token:
            return 0
        owner = self._fallback_owner
        if owner is not None and owner != core:
            raise StallRetry(TOKEN_BLOCK, {owner})
        outcome = self.fabric.acquire(core, TOKEN_BLOCK, write=True)
        self.memory.write(TOKEN_ADDR, core + 1, 8)
        self._fallback_owner = core
        txn.holds_token = True
        return outcome.latency

    def _stm_load(self, core: int, addr: int, size: int) -> LoadResult:
        txn = self._stm_txns[core]
        latency = self._ensure_token(core, txn) + READ_BARRIER_INSTRS
        txn.barrier_instrs += READ_BARRIER_INSTRS
        fabric = self.fabric
        first = addr // BLOCK_SIZE
        last = (addr + size - 1) // BLOCK_SIZE
        for blk in range(first, last + 1):
            # A remote hardware transaction may hold this block dirty
            # (eager versioning): resolve it so the value we read is
            # architecturally committed.
            writers = fabric.probe(core, blk, False)
            if writers is not None:
                self._stm_data_conflict(core, blk, writers)
            latency += fabric.acquire(core, blk, write=False).latency
            latency += self._orec_read(core, txn, blk)
        value = txn.wbuf.read(addr, size, self.memory.read_bytes(addr, size))
        return LoadResult(value=value, latency=latency)

    def _stm_store(self, core: int, addr: int, size: int, value: int) -> int:
        txn = self._stm_txns[core]
        latency = self._ensure_token(core, txn) + WRITE_BARRIER_INSTRS
        txn.barrier_instrs += WRITE_BARRIER_INSTRS
        write_blocks = txn.wbuf.blocks()
        first = addr // BLOCK_SIZE
        last = (addr + size - 1) // BLOCK_SIZE
        for blk in range(first, last + 1):
            if blk in write_blocks:
                continue
            orec = orec_addr(blk)
            txn.write_orecs.add(orec)
            if txn.pessimistic and orec not in txn.owned_orecs:
                latency += self._own_orec(core, txn, orec)
        txn.wbuf.write(addr, size, value)
        return latency

    def _orec_read(self, core: int, txn: _StmTxn, blk: int) -> int:
        """First read of a block: sample its orec version (optimistic)
        or acquire its owner word (pessimistic)."""
        orec = orec_addr(blk)
        if orec in txn.read_orecs or orec in txn.owned_orecs:
            return 0
        if txn.pessimistic:
            return self._own_orec(core, txn, orec)
        latency = self.fabric.acquire(
            core, block_of(orec), write=False
        ).latency
        txn.read_orecs[orec] = self.memory.read(orec, 8)
        return latency

    def _own_orec(self, core: int, txn: _StmTxn, orec: int) -> int:
        """Progressive fallback: write our id into the orec's owner
        word.  Conflicting hardware commits check it and abort."""
        latency = self.fabric.acquire(core, block_of(orec), write=True).latency
        self.memory.write(owner_addr(orec), core + 1, 8)
        txn.owned_orecs.add(orec)
        return latency

    def _stm_data_conflict(
        self, core: int, blk: int, writers: set[int]
    ) -> None:
        """A software read found remote eager speculative writers.

        The pessimistic fallback always wins (it must never abort);
        an optimistic software transaction goes through the normal
        contention policy, so it may stall or abort like any other
        requester.
        """
        if self._stm_txns[core].pessimistic:
            for holder in sorted(writers):
                if holder != core:
                    self._doom(holder, reason="subscription")
        else:
            self._resolve(core, blk, writers)
            self._check_self_doom(core)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _pre_commit(self, core: int) -> tuple[int, CommitPlan]:
        ctx = self.ctx[core]
        if ctx.stm:
            return self._stm_pre_commit(core)
        if not self.hybrid:
            return super()._pre_commit(core)
        if self.pessimistic_fallback:
            spec_written = self.fabric.cores[core].spec_written
            if spec_written:
                self._htm_owner_check(core, spec_written)
        latency, plan = super()._pre_commit(core)
        blocks = set(self.fabric.cores[core].spec_written)
        blocks.update(block_of(a) for a, _s, _v in plan.stores)
        if not blocks:
            return latency, plan
        return latency + self._htm_publish(core, blocks), plan

    def _pre_drain(self, core: int, plan: CommitPlan) -> None:
        """Progressive: veto a hardware commit whose buffered stores
        target blocks the pessimistic fallback owns."""
        super()._pre_drain(core, plan)
        if (
            self.pessimistic_fallback
            and not self.ctx[core].stm
            and plan.stores
        ):
            self._htm_owner_check(
                core, {block_of(a) for a, _s, _v in plan.stores}
            )

    def _htm_owner_check(self, core: int, blocks) -> None:
        """Abort (reason "subscription") if any block's orec is owned
        by a pessimistic fallback: the fallback read it and performs
        no validation, so a hardware write would break its snapshot."""
        mem = self.memory
        for orec in {orec_addr(b) for b in blocks}:
            if mem.read(owner_addr(orec), 8) != 0:
                self._abort_self(core, reason="subscription")

    def _htm_publish(self, core: int, blocks: set[int]) -> int:
        """Hardware-side commit instrumentation: bump the orec version
        of every written block so software validation observes the
        commit.  Charged :data:`SUBSCRIBE_INSTRS` per orec, plus the
        coherence latency of the orec blocks."""
        mem = self.memory
        orecs = sorted({orec_addr(b) for b in blocks})
        cost = len(orecs) * SUBSCRIBE_INSTRS
        latency = cost
        for orec in orecs:
            latency += self.fabric.acquire(
                core, block_of(orec), write=True
            ).latency
            mem.write(orec, mem.read(orec, 8) + 1, 8)
        self.stats.core(core).barrier_instrs += cost
        return latency

    def _stm_pre_commit(self, core: int) -> tuple[int, CommitPlan]:
        txn = self._stm_txns[core]
        mem = self.memory
        fabric = self.fabric
        latency = 0

        # Commit-time validation (optimistic only): every read orec
        # must still hold the version sampled at first read.
        if txn.read_orecs:
            cost = len(txn.read_orecs) * VALIDATE_INSTRS
            txn.barrier_instrs += cost
            latency += cost
            for orec, version in txn.read_orecs.items():
                latency += fabric.acquire(
                    core, block_of(orec), write=False
                ).latency
                if mem.read(orec, 8) != version:
                    self._abort_self(core, reason="validation")

        # The STM analogue of RETCON's plan: just the buffered stores,
        # no reacquires or register repairs.
        plan = CommitPlan(stores=txn.wbuf.runs())
        self._check_commit(core, plan)

        if plan.stores:
            if self.hybrid:
                # Doom every subscribed hardware transaction *before*
                # writing back: their eager rollback must not clobber
                # our committed bytes.  (Any hardware transaction with
                # speculative state subscribed at its first access.)
                for other, octx in enumerate(self.ctx):
                    if (
                        other != core
                        and octx.active
                        and not octx.stm
                        and octx.subscribed
                    ):
                        self._doom(other, reason="subscription")
            # Publish: write buffer -> memory (block acquires charged),
            # then write-set orec bumps, then the global clock.
            for blk in sorted(
                {block_of(a) for a, _s, _v in plan.stores}
            ):
                outcome = fabric.acquire(core, blk, write=True)
                latency += max(1, outcome.latency)
                if outcome.invalidated:
                    self._notify_trackers(core, blk, outcome.invalidated)
            mem.write_runs(plan.stores)
            cost = len(txn.write_orecs) * COMMIT_INSTRS
            txn.barrier_instrs += cost
            latency += cost
            for orec in sorted(txn.write_orecs):
                latency += fabric.acquire(
                    core, block_of(orec), write=True
                ).latency
                mem.write(orec, mem.read(orec, 8) + 1, 8)
            latency += fabric.acquire(core, CLOCK_BLOCK, write=True).latency
            mem.write(CLOCK_ADDR, mem.read(CLOCK_ADDR, 8) + 1, 8)

        self.stats.core(core).stm_commits += 1
        if self.metrics is not None:
            # The software sets stand in for the speculative ones the
            # hardware occupancy hook skips on ctx.stm attempts.
            self._h_read_set.observe(
                len(txn.read_orecs) or len(txn.owned_orecs)
            )
            self._h_write_set.observe(len(txn.write_orecs))
        self._stm_end(core)
        return latency, plan

    def _stm_end(self, core: int) -> None:
        """End a software attempt, committed or aborted: flush its
        barrier instructions (wasted work is still work), release
        pessimistic ownership (zero the owner words and free the
        fallback token: bookkeeping writes, zero-cycle like rollback),
        and drop the attempt."""
        txn = self._stm_txns[core]
        if txn is None:
            return
        self.stats.core(core).barrier_instrs += txn.barrier_instrs
        mem = self.memory
        for orec in txn.owned_orecs:
            mem.write(owner_addr(orec), 0, 8)
        if txn.holds_token:
            mem.write(TOKEN_ADDR, 0, 8)
            self._fallback_owner = None
        self._stm_txns[core] = None

    # ------------------------------------------------------------------
    # Abort cleanup
    # ------------------------------------------------------------------
    def _rollback(self, core, reason, remote, block=None, structure=None) -> None:
        ctx = self.ctx[core]
        was_stm = ctx.active and ctx.stm
        super()._rollback(core, reason, remote, block, structure)
        if was_stm:
            self._stm_end(core)


class STMSystem(STMMixin, BaseTMSystem):
    """The software path over the eager baseline: the standalone
    ``stm`` backend (every transaction instrumented software, conflict
    detection entirely commit-time validation, no speculative state,
    no capacity limits) and, with ``hybrid=True``, ``hybrid-eager``."""


class STMRetconSystem(STMMixin, RetconTMSystem):
    """The software path over RETCON / lazy-vb: ``hybrid-retcon``,
    ``hybrid-lazy-vb`` and ``progressive``."""
