"""Dependence-tracked speculative value forwarding (DATM's machinery).

Instead of aborting or stalling on a conflict, dependence-aware TM
(DATM, Ramadan et al., MICRO 2008 — Figure 2b's comparison point)
forwards speculative data between transactions and records a
*commit-order dependence*.  With eager version management the
speculative value already sits in memory, so forwarding is simply
reading it.  :class:`ForwardingMixin` maintains the commit-order edges
(``preds``/``succs``): a transaction that consumed another's
speculative data must commit after it; an edge that would close a
cycle aborts the younger transaction (the paper's double-increment
example); aborting a transaction cascades to everything that consumed
its data.

Two systems compose it (rows ``datm`` and ``retcon-fwd`` of
:data:`repro.htm.backends.BACKENDS`):

* :class:`DATMSystem` — over the eager baseline.  It captures DATM's
  qualitative behaviour for the paper's comparison: single increments
  commit without aborts; repeated interleaved increments produce
  cyclic dependences and abort.
* :class:`RetconForwardingSystem` — over RETCON, the integration the
  paper's conclusion proposes (§7).  Blocks the predictor elects for
  symbolic tracking take the normal RETCON paths and are *repaired*;
  conflicts that reach the baseline machinery (untracked blocks,
  trained-down blocks whose values are used as addresses — the §5.4
  gap, e.g. ``intruder``'s queue head) are forwarded instead of
  aborting or stalling.
"""

from __future__ import annotations

from repro.htm.events import StallRetry
from repro.htm.system import BaseTMSystem, RetconTMSystem


class ForwardingMixin:
    """Commit-order dependence tracking over a BaseTMSystem subclass."""

    def __init__(self, *args, cooldown: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        ncores = self.config.ncores
        # preds[c] = cores that must commit before c; succs = inverse.
        self._preds: list[set[int]] = [set() for _ in range(ncores)]
        self._succs: list[set[int]] = [set() for _ in range(ncores)]
        #: hysteresis: after a cyclic-dependence abort on a block, skip
        #: forwarding it for this many conflicts (0 = always forward,
        #: as plain DATM does) — symmetric to the tracking predictor's
        #: train-down, for blocks whose chains keep closing cycles
        #: (e.g. a queue index touched twice per transaction).
        self._fwd_cooldown_length = cooldown
        self._fwd_cooldown: dict[int, int] = {}
        #: cores inside their commit sequence: conflicts found while
        #: committing must NOT take new dependences (the commit-order
        #: barrier has already been passed), so they fall back to the
        #: baseline contention logic.
        self._committing: set[int] = set()

    # ------------------------------------------------------------------
    def _clear_edges(self, core: int) -> None:
        for pred in self._preds[core]:
            self._succs[pred].discard(core)
        for succ in self._succs[core]:
            self._preds[succ].discard(core)
        self._preds[core].clear()
        self._succs[core].clear()

    def _reaches(self, start: int, goal: int) -> bool:
        """Is *goal* reachable from *start* along commit-order edges?"""
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succs[node])
        return False

    def _dependents(self, core: int) -> tuple[int, ...]:
        """The active transactions reachable from *core* along
        commit-order edges, in topological order (reverse DFS
        post-order)."""
        post, seen = [], {core}

        def visit(node: int) -> None:
            for succ in sorted(self._succs[node]):
                if succ not in seen:
                    seen.add(succ)
                    visit(succ)
                    post.append(succ)

        visit(core)
        return tuple(c for c in reversed(post) if self.ctx[c].active)

    def _cascade_abort(self, core: int) -> None:
        """Abort *core*'s dependents (they consumed forwarded data)."""
        for succ in list(self._succs[core]):
            if self.ctx[succ].active:
                self._doom(succ, reason="dependence")

    # ------------------------------------------------------------------
    # Hooks into the base system's lifecycle
    # ------------------------------------------------------------------
    def begin(self, core: int, restart: bool = False) -> None:
        super().begin(core, restart)
        self._clear_edges(core)

    def _rollback(self, core: int, reason: str, remote: bool) -> None:
        self._cascade_abort(core)
        self._clear_edges(core)
        super()._rollback(core, reason, remote)

    def _resolve(self, core: int, block: int, holders: set[int]) -> None:
        """Forward instead of aborting.  Non-transactional requesters
        (they cannot take a dependence), mid-commit conflicts
        (pre-commit reacquire / drain) and cooled-down blocks use the
        baseline logic."""
        if (
            not self.ctx[core].active
            or core in self._committing
            or not self._forwarding_allowed(block)
        ):
            super()._resolve(core, block, holders)
            return
        # Keep predictor training: forwarded conflicts are still
        # conflicts, and blocks that conflict repeatedly should migrate
        # to the (cheaper) symbolic-repair path.
        self._observe_conflict(core, block, holders)
        self._forwarding_resolve(core, block, holders)

    # ------------------------------------------------------------------
    def _forwarding_resolve(
        self, core: int, block: int, holders: set[int]
    ) -> None:
        """Order *core* after each holder instead of aborting.

        A dependence that would close a cycle aborts the younger
        transaction (the forwarded chain cannot serialize).
        """
        ctx = self.ctx[core]
        for holder in sorted(holders):
            if not self.ctx[holder].active or holder == core:
                continue
            if holder in self._preds[core]:
                continue
            if self._reaches(core, holder):
                if self._fwd_cooldown_length:
                    self._fwd_cooldown[block] = (
                        self._fwd_cooldown_length
                    )
                if ctx.ts > self.ctx[holder].ts:
                    self._abort_self(core, reason="dependence")
                else:
                    self._doom(holder, reason="dependence")
                continue
            self._preds[core].add(holder)
            self._succs[holder].add(core)
            self.stats.core(core).forwards += 1
            if self.tracer is not None:
                self._trace(
                    "forward", core, {"block": block, "source": holder}
                )

    def _forwarding_allowed(self, block: int) -> bool:
        """Hysteresis check: is this block in forwarding cooldown?"""
        remaining = self._fwd_cooldown.get(block, 0)
        if remaining > 0:
            self._fwd_cooldown[block] = remaining - 1
            return False
        return True

    def _commit_order_barrier(self, core: int) -> None:
        """Raise StallRetry until every predecessor has committed.

        The wait is registered in the baseline wait-for graph so that
        a predecessor stalling (baseline-style) on one of *our* blocks
        sees the cycle and breaks it by aborting the younger party —
        otherwise a commit-order wait and an access stall could
        deadlock each other invisibly.
        """
        pending = {
            pred for pred in self._preds[core] if self.ctx[pred].active
        }
        if pending:
            self._waiting_on[core] = min(pending)
            raise StallRetry(block=-1, blockers=pending)
        self._waiting_on.pop(core, None)

    def commit(self, core: int):
        self._commit_order_barrier(core)
        self._committing.add(core)
        try:
            result = super().commit(core)
        finally:
            self._committing.discard(core)
        self._clear_edges(core)
        return result


class DATMSystem(ForwardingMixin, BaseTMSystem):
    """Forwarding over the eager baseline."""


class RetconForwardingSystem(ForwardingMixin, RetconTMSystem):
    """Forwarding over RETCON."""
