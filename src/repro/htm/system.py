"""The transactional memory systems: eager baseline and RETCON.

:class:`BaseTMSystem` implements the paper's baseline HTM (§2):
access-time (eager) conflict detection via the coherence fabric's
speculative read/written sets, pluggable contention management, eager
version management with zero-cycle rollback, and OneTM-style overflow
serialization backed by the permissions-only cache.

:class:`RetconTMSystem` layers the RETCON engine on top: predictor-
selected blocks are value/symbolically tracked (Figure 6 paths) and
repaired at commit (Figure 7); all other accesses use the baseline
machinery unchanged.  Configured with ``symbolic_arithmetic=False``
and an always-track predictor it becomes the paper's *lazy-vb*
variant.

The simulator's global scheduler interleaves cores between
instructions, so each TM operation here (including the whole
pre-commit + commit sequence) is atomic with respect to other cores;
latencies are charged to the requesting core's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.coherence.directory import CoherenceFabric
from repro.core.engine import (
    CapacityAbort,
    CommitPlan,
    ConstraintViolation,
    RetconEngine,
)
from repro.core.predictor import ConflictPredictor
from repro.core.symvalue import SymValue, sym_root
from repro.htm.contention import Action, ContentionPolicy, get_policy
from repro.htm.events import StallRetry, TxnAborted
from repro.htm.versioning import UndoLog
from repro.mem.address import BLOCK_SIZE, block_of
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats


@dataclass(slots=True)
class TxnContext:
    """Per-core transaction bookkeeping."""

    active: bool = False
    ts: int = 0
    undo: UndoLog = field(default_factory=UndoLog)
    doomed: bool = False
    doom_reason: str = "conflict"
    overflowed: bool = False
    #: attempt count for the current logical transaction (1 on the
    #: first attempt, +1 per restart); hybrid backends compare it to
    #: the retry budget to decide when to escalate to STM
    attempts: int = 0
    #: True while this attempt runs on the STM slow path
    stm: bool = False
    #: True once this HTM attempt has loaded the STM clock word
    #: (hybrid backends only; see repro.stm.backend)
    subscribed: bool = False
    #: sticky for the logical transaction: a speculative-set capacity
    #: abort happened, so (on backends without an STM slow path) every
    #: retry runs under OneTM overflow serialization — unbounded but
    #: conservatively conflicting — instead of overflowing identically
    #: forever.  Cleared on the next fresh begin.
    cap_serialized: bool = False


@dataclass(slots=True)
class LoadResult:
    value: int
    latency: int
    sym: Optional[SymValue] = None


@dataclass(slots=True)
class StoreResult:
    latency: int


#: shared result for the ubiquitous 1-cycle store hit; never mutate
_STORE_HIT = StoreResult(latency=1)


@dataclass(slots=True)
class CommitResult:
    latency: int
    #: (reg, value) register repairs RETCON computed at commit
    register_repairs: list[tuple[int, int]] = field(default_factory=list)
    #: (addr, size, value) buffered stores the commit drained to memory
    #: (hybrid backends publish their blocks to the STM orecs)
    stores: Sequence[tuple[int, int, int]] = ()


#: shared result for the baseline's free commit; never mutate
_COMMIT_FREE = CommitResult(latency=0)


class BaseTMSystem:
    """The eager-baseline HTM (also the superclass of all variants)."""

    #: the :data:`repro.htm.backends.BACKENDS` row this system was
    #: built from, stamped by ``build_system``; a directly constructed
    #: system (unit tests) keeps this default
    name = "unnamed"
    #: retry policy for speculative-set capacity aborts: True (pure
    #: HTM) reruns the transaction under OneTM overflow serialization;
    #: the STM mixin overrides with False because hybrids escalate the
    #: retry to the software slow path instead.
    capacity_serializes = True

    def __init__(
        self,
        config: MachineConfig,
        memory: MainMemory,
        fabric: CoherenceFabric,
        stats: MachineStats,
        policy: "ContentionPolicy | str" = "timestamp",
    ) -> None:
        self.config = config
        self.memory = memory
        self.fabric = fabric
        self.stats = stats
        self.policy = (
            get_policy(policy) if isinstance(policy, str) else policy
        )
        self.ctx = [TxnContext() for _ in range(config.ncores)]
        self._next_ts = 0
        #: wait-for edges for deadlock detection under stalling policies
        self._waiting_on: dict[int, int] = {}
        #: optional :class:`repro.obs.events.EventStream`
        self.tracer = None
        #: optional :class:`repro.obs.metrics.MetricsRegistry`; attach
        #: via :meth:`bind_metrics` so commits hold histogram handles
        self.metrics = None
        #: block whose conflict resolution is in progress (attributed
        #: to abort events raised while resolving it)
        self._resolving_block: Optional[int] = None
        #: optional :class:`repro.check.oracle.RepairOracle`; the core
        #: drives its recording hooks, :meth:`_check_commit` its checks
        self.oracle = None
        #: optional :class:`repro.check.faults.FaultInjector` (oracle
        #: self-tests corrupt pre-commit state through this)
        self.fault_injector = None
        #: speculative read/write-set bounds (Kafousis-style limited
        #: sets); None keeps the historical unbounded behavior and the
        #: enforcement branch below one attribute check per first-touch
        self._rs_limit = config.read_set_entries
        self._ws_limit = config.write_set_entries
        self._cap_limited = (
            self._rs_limit is not None or self._ws_limit is not None
        )
        #: structure/block stashed by capacity aborts so the abort
        #: event carries its attribution (consumed by _rollback)
        self._abort_structure: Optional[str] = None
        self._abort_block: Optional[int] = None

    def _trace(self, kind: str, core: int, detail: dict) -> None:
        """Record one event as is; ``Machine.run`` shadows this with a
        callable that first stamps ``cycle`` and ``label`` into it."""
        self.tracer.record(kind, core, detail)

    def bind_metrics(self, registry) -> None:
        """Attach a metrics registry, holding the occupancy histograms.

        Counts are not observed here: they live in
        :class:`~repro.sim.stats.CoreStats`, and
        :func:`repro.obs.collect.collect_machine` copies them into the
        registry when the run finishes.
        """
        self.metrics = registry
        # Per-txn set-occupancy distributions, observed once per
        # commit/abort boundary (Kafousis-style limited-set telemetry).
        self._h_read_set = registry.histogram("txn.read_set_size")
        self._h_write_set = registry.histogram("txn.write_set_size")
        self._h_ivb = registry.histogram("txn.ivb_occupancy")
        self._h_ssb = registry.histogram("txn.ssb_occupancy")

    # ------------------------------------------------------------------
    # Engine access (overridden by RETCON)
    # ------------------------------------------------------------------
    def engine(self, core: int) -> Optional[RetconEngine]:
        return None

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, core: int, restart: bool = False) -> None:
        ctx = self.ctx[core]
        if ctx.active and not restart:
            raise RuntimeError(f"core {core}: nested begin")
        if not restart:
            self._next_ts += 1
            ctx.ts = self._next_ts
            ctx.attempts = 1
            ctx.cap_serialized = False
        else:
            ctx.attempts += 1
        ctx.active = True
        ctx.doomed = False
        ctx.overflowed = False
        ctx.stm = False
        ctx.subscribed = False
        if ctx.cap_serialized and self.capacity_serializes:
            # Retry of a speculative-set capacity abort: run it under
            # OneTM overflow serialization (unbounded sets, but it
            # conservatively conflicts with every in-flight txn), the
            # same backing mechanism the permissions-only cache uses.
            ctx.overflowed = True
            self.fabric.overflowed.add(core)
        engine = self.engine(core)
        if engine is not None:
            engine.begin_txn()
        if self.tracer is not None:
            self._trace("begin", core, {"ts": ctx.ts, "restart": restart})

    def in_txn(self, core: int) -> bool:
        return self.ctx[core].active

    def poll_doomed(self, core: int) -> Optional[str]:
        """If a remote decision aborted this core's transaction, return
        the reason (state was already rolled back); else None."""
        ctx = self.ctx[core]
        if ctx.active and ctx.doomed:
            ctx.doomed = False
            ctx.active = False
            return ctx.doom_reason
        return None

    # ------------------------------------------------------------------
    # Conflict resolution
    # ------------------------------------------------------------------
    def _resolve(self, core: int, block: int, holders: set[int]) -> None:
        """Resolve conflicts with *holders*; raises StallRetry or
        TxnAborted, or returns with every holder aborted.

        *holders* is the caller's own probe result, so a stall behind a
        single holder raises with it as the blocker set: a retry
        allocates nothing here beyond the StallRetry it reports.
        """
        ctx = self.ctx[core]
        self._observe_conflict(core, block, holders)
        self.stats.core(core).conflict_events += 1
        if self.tracer is not None:
            self._trace(
                "conflict", core, {"block": block, "holders": len(holders)}
            )
        nontx = not ctx.active
        waiting = self._waiting_on
        single = len(holders) == 1
        # sorted() only matters with several holders; the common
        # single-holder case iterates the set directly.
        for holder in holders if single else sorted(holders):
            holder_ctx = self.ctx[holder]
            if not holder_ctx.active:
                continue  # already gone (e.g. aborted for a prior holder)
            action = self.policy.resolve(
                ctx.ts, holder_ctx.ts, nontx, core, holder
            ).action
            if action is Action.STALL:
                # A holder is never the requester, so a wait cycle
                # through it needs a wait edge of its own.
                if holder not in waiting or not self._would_deadlock(
                    core, holder
                ):
                    waiting[core] = holder
                    raise StallRetry(block, holders if single else {holder})
                # Break the wait cycle: abort the younger of the pair
                # ((ts, core id) order, matching the timestamp policy).
                if (ctx.ts, core) > (holder_ctx.ts, holder):
                    action = Action.ABORT_SELF
                else:
                    action = Action.ABORT_REMOTE
            self._resolving_block = block
            try:
                if action is Action.ABORT_REMOTE:
                    self._doom(holder, reason="conflict")
                else:
                    self._abort_self(core, reason="conflict")
            finally:
                self._resolving_block = None
        waiting.pop(core, None)

    def _check_self_doom(self, core: int) -> None:
        """Abort immediately if resolving a conflict doomed *us*.

        Cascading aborts (DATM/hybrid forwarding) can doom the
        requester itself while it resolves a conflict against a
        holder; its state was already rolled back, so continuing the
        access would leak an un-undoable store.  Convert the doom into
        an immediate TxnAborted instead.
        """
        reason = self.poll_doomed(core)
        if reason is not None:
            raise TxnAborted(reason)

    def _clear_wait_edges(self, core: int) -> None:
        """Drop *core* from the wait-for graph entirely.

        Besides the core's own outgoing edge, every edge *pointing at*
        the core is removed: a requester recorded as waiting on *core*
        is no longer blocked once the core's transaction ends (it will
        retry and re-resolve), and a stale incoming edge would let
        ``_would_deadlock`` walk a cycle that no longer exists and
        abort a transaction over a phantom deadlock.
        """
        waiting = self._waiting_on
        if not waiting:
            return
        waiting.pop(core, None)
        stale = [
            requester
            for requester, holder in waiting.items()
            if holder == core
        ]
        for requester in stale:
            del waiting[requester]

    def _would_deadlock(self, requester: int, holder: int) -> bool:
        seen = set()
        current: Optional[int] = holder
        while current is not None and current not in seen:
            if current == requester:
                return True
            seen.add(current)
            current = self._waiting_on.get(current)
        return False

    def _observe_conflict(
        self, core: int, block: int, holders: set[int]
    ) -> None:
        """Hook for predictor training (RETCON overrides)."""

    def _doom(self, core: int, reason: str) -> None:
        """Abort a remote core's transaction: restore state now, let its
        interpreter notice at its next step.  Idempotent: an attempt
        stays active until it polls its doom, and is rolled back (and
        counted) once."""
        ctx = self.ctx[core]
        if ctx.active and not ctx.doomed:
            self._rollback(core, reason, remote=True)

    def _abort_self(self, core: int, reason: str) -> None:
        self._rollback(core, reason, remote=False)
        raise TxnAborted(reason)

    def _rollback(self, core: int, reason: str, remote: bool) -> None:
        """The one abort body behind :meth:`_doom` and
        :meth:`_abort_self`; variants with extra per-attempt state
        extend this method."""
        ctx = self.ctx[core]
        if self.metrics is not None:
            self._observe_occupancy(core)
        ctx.undo.rollback(self.memory)
        self.fabric.clear_spec(core)
        engine = self.engine(core)
        if engine is not None:
            engine.abort_txn()
        # A doomed attempt stays active until its own interpreter polls
        # the doom; a self-abort ends here.
        ctx.active = remote
        ctx.doomed = remote
        # Recorded for self-aborts too: hybrid backends read it at
        # restart to escalate capacity-aborted transactions.
        ctx.doom_reason = reason
        self._clear_wait_edges(core)
        stats = self.stats.core(core)
        stats.aborts[reason] = stats.aborts.get(reason, 0) + 1
        # The capacity stash describes the aborting requester, not the
        # dependents its abort may cascade to.
        structure = None if remote else self._abort_structure
        if structure is not None:
            capacity = stats.capacity_aborts
            capacity[structure] = capacity.get(structure, 0) + 1
        if self.tracer is not None:
            detail = {"reason": reason, "by": "remote" if remote else "self"}
            if structure is not None:
                detail["structure"] = structure
            block = self._resolving_block
            if not remote and self._abort_block is not None:
                block = self._abort_block
            if block is not None:
                detail["block"] = block
            self._trace("abort", core, detail)

    def _capacity_abort_structure(
        self, core: int, structure: str, block: Optional[int] = None
    ) -> None:
        """Abort with ``reason="capacity"``, attributing *structure*.

        Speculative-set overflow (``read_set``/``write_set``) marks
        the logical transaction for OneTM overflow serialization on
        its retries (see :meth:`begin`); hybrids ignore the mark and
        escalate to STM via the recorded doom reason.  RETCON-buffer
        overflows (``ssb``) keep their existing retry mechanism —
        predictor retraining — and never serialize.
        """
        ctx = self.ctx[core]
        if structure in ("read_set", "write_set"):
            ctx.cap_serialized = True
        self._abort_structure = structure
        self._abort_block = block
        try:
            self._abort_self(core, reason="capacity")
        finally:
            self._abort_structure = None
            self._abort_block = None

    def _check_spec_capacity(
        self, core: int, block: int, write: bool
    ) -> None:
        """Enforce the speculative-set bounds after a ``mark_spec``.

        Only called when ``_cap_limited``; an overflowed (serialized)
        attempt models the unbounded backing mechanism, so it is
        exempt.  Raises TxnAborted via the capacity-abort path.
        """
        ctx = self.ctx[core]
        if ctx.overflowed or not ctx.active:
            return
        caches = self.fabric.cores[core]
        if write:
            if (
                self._ws_limit is not None
                and len(caches.spec_written) > self._ws_limit
            ):
                self._capacity_abort_structure(core, "write_set", block)
        elif (
            self._rs_limit is not None
            and len(caches.spec_read) > self._rs_limit
        ):
            self._capacity_abort_structure(core, "read_set", block)

    def _observe_occupancy(self, core: int) -> None:
        """Record per-txn set occupancy into the bound histograms.

        Called at commit/abort boundaries only, before speculative
        state is cleared; STM attempts are skipped here because the
        software commit observes its own orec sets instead.
        """
        ctx = self.ctx[core]
        if ctx.stm:
            return
        caches = self.fabric.cores[core]
        self._h_read_set.observe(len(caches.spec_read))
        self._h_write_set.observe(len(caches.spec_written))
        engine = self.engine(core)
        if engine is not None:
            self._h_ivb.observe(len(engine.ivb))
            self._h_ssb.observe(engine.ssb.peak)

    # ------------------------------------------------------------------
    # Conflict filtering
    # ------------------------------------------------------------------
    def _with_overflowed(
        self, core: int, conflicts: Optional[set[int]]
    ) -> Optional[set[int]]:
        """Extend ``fabric.probe``'s answer with OneTM overflow
        serialization: a transaction that overflowed the
        permissions-only cache conservatively conflicts with every
        in-flight transaction on any access (the paper's backing
        mechanism serializes overflowed transactions; overflows are
        essentially eliminated by the permissions-only cache, so this
        path is cold).
        """
        for other in self.fabric.overflowed:
            if other != core and self.ctx[other].active:
                if conflicts is None:
                    conflicts = set()
                conflicts.add(other)
        return conflicts

    # ------------------------------------------------------------------
    # Memory operations (baseline / eager paths)
    # ------------------------------------------------------------------
    def load(self, core: int, addr: int, size: int) -> LoadResult:
        block = addr // BLOCK_SIZE
        fabric = self.fabric
        if (addr + size - 1) // BLOCK_SIZE == block:
            # Single-block L1-hit fast path: the conflict probe is
            # clean, no transaction has overflowed, and the line is
            # resident — exactly the path _eager_block_access +
            # fabric.acquire take, with their call overhead inlined
            # away.  Otherwise the same probe feeds the slow path, so
            # a stall retry probes once.
            holders = fabric.probe(core, block, False)
            if holders is None and not fabric.overflowed:
                caches = fabric.cores[core]
                if caches.l1.lookup(block) is not None:
                    if self._waiting_on:
                        self._waiting_on.pop(core, None)
                    if (
                        self.ctx[core].active
                        and block not in caches.spec_read
                    ):
                        fabric.mark_spec(core, block, False)
                        if self._cap_limited:
                            self._check_spec_capacity(core, block, False)
                    return LoadResult(
                        value=self.memory.read(addr, size), latency=1
                    )
            latency = self._eager_block_access(core, block, False, holders)
        else:
            latency = 0
            for blk in range(
                addr // BLOCK_SIZE, (addr + size - 1) // BLOCK_SIZE + 1
            ):
                latency += self._eager_block_access(
                    core, blk, False, fabric.probe(core, blk, False)
                )
        return LoadResult(value=self.memory.read(addr, size), latency=latency)

    def store(
        self,
        core: int,
        addr: int,
        size: int,
        value: int,
        sym: Optional[SymValue] = None,
    ) -> StoreResult:
        block = addr // BLOCK_SIZE
        fabric = self.fabric
        if (addr + size - 1) // BLOCK_SIZE == block:
            # Single-block L1-hit fast path (see load); a write needs a
            # writable line and the directory side of acquire's hit.
            holders = fabric.probe(core, block, True)
            if holders is None and not fabric.overflowed:
                caches = fabric.cores[core]
                line = caches.l1.lookup(block)
                if line is not None and line.writable:
                    if self._waiting_on:
                        self._waiting_on.pop(core, None)
                    fabric.write_hit(core, block)
                    ctx = self.ctx[core]
                    if ctx.active:
                        if block not in caches.spec_written:
                            fabric.mark_spec(core, block, True)
                            if self._cap_limited:
                                self._check_spec_capacity(core, block, True)
                        ctx.undo.record(self.memory, addr, size)
                    self.memory.write(addr, value, size)
                    return _STORE_HIT
            latency = self._eager_block_access(core, block, True, holders)
        else:
            latency = 0
            for blk in range(
                addr // BLOCK_SIZE, (addr + size - 1) // BLOCK_SIZE + 1
            ):
                latency += self._eager_block_access(
                    core, blk, True, fabric.probe(core, blk, True)
                )
        ctx = self.ctx[core]
        if ctx.active:
            ctx.undo.record(self.memory, addr, size)
        self.memory.write(addr, value, size)
        return StoreResult(latency=latency)

    def _eager_block_access(
        self, core: int, block: int, write: bool, holders: Optional[set[int]]
    ) -> int:
        """Resolve conflicts and perform one block's coherence access;
        *holders* is the caller's ``fabric.probe(core, block, write)``."""
        fabric = self.fabric
        if fabric.overflowed:
            holders = self._with_overflowed(core, holders)
        if holders is not None:
            self._resolve(core, block, holders)
            self._check_self_doom(core)
        self._waiting_on.pop(core, None)
        outcome = fabric.acquire(core, block, write)
        # Report the invalidated copies before anything below can
        # abort: a victim that is never told it lost the block is no
        # longer a sharer either, so no later writer would tell it, and
        # it would commit against a stale initial value.
        if write and outcome.invalidated:
            self._notify_trackers(core, block, outcome.invalidated)
        if self.ctx[core].active:
            fabric.mark_spec(core, block, write)
            if self._cap_limited:
                self._check_spec_capacity(core, block, write)
        return outcome.latency

    def _notify_trackers(
        self, core: int, block: int, invalidated: tuple[int, ...]
    ) -> None:
        """Writers steal value-tracked copies; tell the victims'
        engines so they revalidate/repair at commit."""
        for other in invalidated:
            engine = self.engine(other)
            if engine is not None and self.ctx[other].active:
                if engine.is_tracked(block):
                    self.stats.core(other).steals += 1
                    if self.tracer is not None:
                        self._trace(
                            "steal", other, {"block": block, "writer": core}
                        )
                engine.on_block_lost(block)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, core: int) -> CommitResult:
        ctx = self.ctx[core]
        if not ctx.active:
            raise RuntimeError(f"core {core}: commit outside transaction")
        result = self._pre_commit(core)
        if self.metrics is not None:
            self._observe_occupancy(core)
        ctx.undo.commit()
        self.fabric.clear_spec(core)
        ctx.active = False
        self._clear_wait_edges(core)
        self.stats.core(core).commits += 1
        if self.tracer is not None:
            self._trace("commit", core, {"latency": result.latency})
        return result

    def _pre_commit(self, core: int) -> CommitResult:
        """Hook: RETCON's pre-commit repair. Baseline commits in 0 cycles,
        its stores in place: a checked commit's plan is empty."""
        if self.oracle is not None:
            self._check_commit(core, CommitPlan())
        return _COMMIT_FREE

    def _check_commit(self, core: int, plan: CommitPlan, engine=None) -> None:
        """The one commit check, called once per commit at the last
        point it can stall or abort, before anything drains: the
        ``post-plan`` fault stage, then the oracle's replay against
        memory read through the undo pre-image of every active
        transaction, the committer's and its dependents' first."""
        if self.fault_injector is not None:
            self.fault_injector.fire("post-plan", engine, plan)
        if self.oracle is not None:
            ctx = self.ctx
            first = (core, *self._dependents(core))
            rest = [c for c in range(len(ctx)) if c not in first]
            self.oracle.check_commit(
                core, plan, self.memory,
                [ctx[c].undo.pre_image() for c in (*first, *rest)
                 if ctx[c].active],
                len(first) - 1, engine,
            )

    def _dependents(self, core: int) -> tuple[int, ...]:
        """Hook: the active transactions that consumed *core*'s
        uncommitted data, in dependence order: none without forwarding."""
        return ()

    # ------------------------------------------------------------------
    # Commit lifecycle hook (consumed by the hybrid TM family)
    # ------------------------------------------------------------------
    def _pre_drain(self, core: int, plan) -> None:
        """Hook: called with the commit plan after validation, before
        any buffered store touches memory.  Hybrid backends veto the
        commit here (``_abort_self``) when a drained block's STM
        metadata is owned by a pessimistic fallback."""


class RetconTMSystem(BaseTMSystem):
    """RETCON (and, reconfigured, the lazy-vb variant)."""

    def __init__(
        self,
        config: MachineConfig,
        memory: MainMemory,
        fabric: CoherenceFabric,
        stats: MachineStats,
        policy: "ContentionPolicy | str" = "timestamp",
        symbolic_arithmetic: bool = True,
        track_all: bool = False,
    ) -> None:
        super().__init__(config, memory, fabric, stats, policy)
        unlimited = config.idealized or track_all
        self.symbolic_arithmetic = symbolic_arithmetic
        self.track_all = track_all
        self._engines = [
            RetconEngine(
                ivb_capacity=None if unlimited else config.ivb_entries,
                constraint_capacity=(
                    None if unlimited else config.constraint_entries
                ),
                ssb_capacity=None if unlimited else config.ssb_entries,
                symbolic_arithmetic=symbolic_arithmetic,
                predictor=ConflictPredictor(
                    train_threshold=config.predictor_train_threshold,
                    backoff=config.predictor_backoff,
                    always_track=track_all,
                ),
            )
            for _ in range(config.ncores)
        ]

    def engine(self, core: int) -> RetconEngine:
        return self._engines[core]

    def _observe_conflict(
        self, core: int, block: int, holders: set[int]
    ) -> None:
        self._engines[core].predictor.observe_conflict(block)
        for holder in holders:
            self._engines[holder].predictor.observe_conflict(block)

    # ------------------------------------------------------------------
    # Tracked-path helpers
    # ------------------------------------------------------------------
    def _fits_tracked(self, addr: int, size: int) -> bool:
        """Tracked accesses must not straddle a block boundary."""
        return block_of(addr) == block_of(addr + size - 1)

    def _try_start_tracking(self, core: int, addr: int, size: int) -> int:
        """Begin tracking the block if the predictor elects it.

        Returns the fetch latency, or -1 if tracking was not started.
        The block's current bytes must be architecturally committed:
        if a remote eager writer holds it speculatively, fall back to
        the baseline path (which will detect the conflict).

        Both callers already verify the access fits in one block and
        that the block is neither tracked nor in this core's
        speculative sets, so only the predictor and speculation checks
        happen here.
        """
        engine = self._engines[core]
        block = addr // BLOCK_SIZE
        if not engine.wants_tracking(block):
            return -1
        if self.fabric.probe(core, block, False) is not None:
            return -1
        outcome = self.fabric.acquire(core, block, write=False)
        engine.start_tracking(block, self.memory.read_block(block))
        return outcome.latency

    def _capacity_abort(self, core: int, exc: CapacityAbort) -> None:
        """A bounded RETCON structure overflowed: abort, and train the
        predictor down on every block this transaction tracks so the
        retry takes the eager path (otherwise a transaction whose
        footprint inherently exceeds the structures would overflow
        identically forever)."""
        engine = self._engines[core]
        for entry in engine.ivb.entries():
            engine.predictor.observe_violation(entry.block)
        self._capacity_abort_structure(
            core,
            exc.structure,
            block_of(exc.addr) if exc.addr is not None else None,
        )

    def _underlying_bytes(self, core: int, addr: int, size: int) -> bytes:
        """Pre-store bytes for SSB merges: initial value for tracked
        blocks, current memory otherwise."""
        entry = self._engines[core].ivb.get(block_of(addr))
        if entry is not None and self._fits_tracked(addr, size):
            return entry.read_initial_bytes(addr, size)
        return self.memory.read_bytes(addr, size)

    # ------------------------------------------------------------------
    # Memory operations (Figure 6)
    # ------------------------------------------------------------------
    def load(self, core: int, addr: int, size: int) -> LoadResult:
        ctx = self.ctx[core]
        engine = self._engines[core]
        if not ctx.active:
            return super().load(core, addr, size)

        block = addr // BLOCK_SIZE
        fits = (addr + size - 1) // BLOCK_SIZE == block
        if fits:
            entry = engine.ivb.entries_by_block.get(block)
            if entry is not None:
                if engine.ssb.entries_by_addr:
                    value, sym = engine.load(addr, size)
                    return LoadResult(value=value, latency=1, sym=sym)
                # Empty SSB: engine.load's no-overlap arm, inlined.
                value = entry.read_initial(addr, size)
                if not engine.symbolic_arithmetic:
                    entry.mark_equality(addr, size)
                    return LoadResult(value=value, latency=1)
                return LoadResult(
                    value=value, latency=1, sym=sym_root(addr, size)
                )

        # A symbolic store may have gone to an untracked address; the
        # SSB is checked in parallel with the cache for every load.
        if engine.ssb.entries_by_addr and engine.has_ssb_overlap(addr, size):
            value, sym = engine.load(
                addr, size, self.memory.read_bytes(addr, size)
            )
            return LoadResult(value=value, latency=1, sym=sym)

        if fits and not self.fabric.is_spec(core, block):
            fetch = self._try_start_tracking(core, addr, size)
            if fetch >= 0:
                value, sym = engine.load(addr, size)
                return LoadResult(value=value, latency=fetch, sym=sym)

        return super().load(core, addr, size)

    def store(
        self,
        core: int,
        addr: int,
        size: int,
        value: int,
        sym: Optional[SymValue] = None,
    ) -> StoreResult:
        ctx = self.ctx[core]
        engine = self._engines[core]
        if not ctx.active:
            return super().store(core, addr, size, value, sym=None)

        block = addr // BLOCK_SIZE
        if not self.symbolic_arithmetic:
            sym = None

        fits = (addr + size - 1) // BLOCK_SIZE == block
        tracked = fits and block in engine.ivb.entries_by_block
        if not tracked and fits and not self.fabric.is_spec(core, block):
            fetch = self._try_start_tracking(core, addr, size)
            if fetch >= 0:
                tracked = True

        if tracked or sym is not None:
            # Figure 6 right side: symbolic store (data symbolic, or the
            # address belongs to a tracked block) goes to the SSB.
            try:
                engine.store_buffered(
                    addr,
                    size,
                    value,
                    sym,
                    lambda a, s: self._underlying_bytes(core, a, s),
                )
            except CapacityAbort as exc:
                self._capacity_abort(core, exc)
            return _STORE_HIT

        # Normal (eager) store.  It must not bypass older buffered
        # stores to overlapping bytes: exact matches invalidate the SSB
        # entry (Figure 6); partial overlaps are merged through the SSB
        # to keep the drain byte-exact.
        overlaps = engine.invalidate_ssb(addr, size)
        if overlaps:
            try:
                engine.store_buffered(
                    addr,
                    size,
                    value,
                    None,
                    lambda a, s: self._underlying_bytes(core, a, s),
                )
            except CapacityAbort as exc:
                self._capacity_abort(core, exc)
            return _STORE_HIT

        return super().store(core, addr, size, value, sym=None)

    # ------------------------------------------------------------------
    # Pre-commit repair (Figure 7)
    # ------------------------------------------------------------------
    def _pre_commit(self, core: int) -> CommitResult:
        engine = self._engines[core]
        engine.mark_written_blocks()
        idealized = self.config.idealized
        latency = 0

        # Step 1: reacquire lost blocks, serially (conservative, §5.1),
        # checking conflicts against eager speculation via the baseline
        # contention logic.
        current: dict[int, bytes] = {}
        reacquire_latencies: list[int] = []
        for block, needs_write in engine.reacquire_plan():
            conflicts = self._with_overflowed(
                core, self.fabric.probe(core, block, needs_write)
            )
            if conflicts:
                self._resolve(core, block, conflicts)
                self._check_self_doom(core)
            outcome = self.fabric.acquire(core, block, write=needs_write)
            reacquire_latencies.append(outcome.latency)
            if needs_write and outcome.invalidated:
                self._notify_trackers(core, block, outcome.invalidated)
            current[block] = self.memory.read_block(block)
        latency += (
            max(reacquire_latencies, default=0)
            if idealized
            else sum(reacquire_latencies)
        )

        if self.fault_injector is not None:
            self.fault_injector.fire("pre-validate", engine, None)

        try:
            engine.validate(current)
        except ConstraintViolation as violation:
            engine.predictor.observe_violation(violation.block)
            self._abort_self(core, reason="constraint")

        plan = engine.commit_plan(current)
        self._pre_drain(core, plan)

        # Resolve every drain conflict before touching memory so a
        # stall cannot leave a half-drained commit visible.
        for block in sorted({block_of(a) for a, _size, _val in plan.stores}):
            conflicts = self._with_overflowed(
                core, self.fabric.probe(core, block, True)
            )
            if conflicts:
                self._resolve(core, block, conflicts)
                self._check_self_doom(core)
        # Nothing below stalls or aborts: this commit happens.
        self._check_commit(core, plan, engine)

        # Step 2: drain stores (serially, after all reacquires) and
        # compute register repairs.
        self.stats.core(core).repairs += len(plan.stores)
        for addr, size, final_value in plan.stores:
            block = block_of(addr)
            outcome = self.fabric.acquire(core, block, write=True)
            if outcome.invalidated:
                self._notify_trackers(core, block, outcome.invalidated)
            if not idealized:
                latency += max(1, outcome.latency)
            self.memory.write(addr, final_value, size)
            if self.tracer is not None:
                self._trace(
                    "repair", core, {"addr": addr, "value": final_value}
                )

        sample = engine.sample(commit_cycles=latency)
        self.stats.record_retcon_sample(core, sample)
        return CommitResult(
            latency=latency,
            register_repairs=plan.registers,
            stores=plan.stores,
        )
