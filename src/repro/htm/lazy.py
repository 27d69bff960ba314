"""Plain lazy (commit-time) conflict detection — Figure 2e's "LazyTM".

Transactions execute without access-time conflict checks: loads record
a read set, stores go to a private write buffer.  At commit the
committer wins: every other in-flight transaction whose read or write
set intersects the committer's write set is aborted, then the write
buffer drains to memory.

This variant exists for the Figure 2 comparison and the contention-
management ablation; the paper's headline comparisons use the eager
baseline, lazy-vb, and RETCON.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import CommitPlan
from repro.core.symvalue import SymValue
from repro.htm.system import BaseTMSystem, LoadResult
from repro.mem.address import blocks_spanned
from repro.mem.memory import WriteBuffer


class LazyTMSystem(BaseTMSystem):
    def __init__(self, config, memory, fabric, stats, policy="timestamp"):
        super().__init__(config, memory, fabric, stats, policy)
        self._read_sets: list[set[int]] = [
            set() for _ in range(config.ncores)
        ]
        self._write_buffers = [WriteBuffer() for _ in range(config.ncores)]

    # ------------------------------------------------------------------
    def begin(self, core: int, restart: bool = False) -> None:
        super().begin(core, restart)
        self._read_sets[core].clear()
        self._write_buffers[core].clear()

    def _rollback(self, core, reason, remote, block=None, structure=None) -> None:
        # Clear after the base body: it observes set occupancy while
        # the sets are still populated.
        super()._rollback(core, reason, remote, block, structure)
        self._read_sets[core].clear()
        self._write_buffers[core].clear()

    def _observe_occupancy(self, core: int) -> None:
        self._h_read_set.observe(len(self._read_sets[core]))
        self._h_write_set.observe(len(self._write_buffers[core].blocks()))

    # ------------------------------------------------------------------
    def load(self, core: int, addr: int, size: int) -> LoadResult:
        ctx = self.ctx[core]
        if not ctx.active:
            return super().load(core, addr, size)
        latency = 0
        read_set = self._read_sets[core]
        for block in blocks_spanned(addr, size):
            read_set.add(block)
            if (
                self._rs_limit is not None
                and not ctx.overflowed
                and len(read_set) > self._rs_limit
            ):
                self._capacity_abort_structure(core, "read_set", block)
            outcome = self.fabric.acquire(core, block, write=False)
            latency += outcome.latency
        value = self._write_buffers[core].read(
            addr, size, self.memory.read_bytes(addr, size)
        )
        return LoadResult(value=value, latency=latency)

    def store(
        self,
        core: int,
        addr: int,
        size: int,
        value: int,
        sym: Optional[SymValue] = None,
    ) -> int:
        ctx = self.ctx[core]
        if not ctx.active:
            return super().store(core, addr, size, value)
        buffer = self._write_buffers[core]
        buffer.write(addr, size, value)
        if (
            self._ws_limit is not None
            and not ctx.overflowed
            and len(buffer.blocks()) > self._ws_limit
        ):
            self._capacity_abort_structure(
                core, "write_set", blocks_spanned(addr, size)[-1]
            )
        return 1

    # ------------------------------------------------------------------
    def _pre_commit(self, core: int) -> tuple[int, CommitPlan]:
        buffer = self._write_buffers[core]
        write_blocks = buffer.blocks()
        # Committer wins: abort every conflicting in-flight transaction.
        for other in range(self.config.ncores):
            if other == core or not self.ctx[other].active:
                continue
            if write_blocks & (
                self._read_sets[other] | self._write_buffers[other].blocks()
            ):
                self._doom(other, reason="conflict")

        latency = 0
        for block in sorted(write_blocks):
            outcome = self.fabric.acquire(core, block, write=True)
            latency += outcome.latency
        plan = CommitPlan(stores=buffer.runs())
        self._check_commit(core, plan)
        self.memory.write_runs(plan.stores)
        # Sets are left intact so commit() can observe their occupancy;
        # begin() clears them before the next transaction.
        return latency, plan
