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

from repro.core.symvalue import SymValue
from repro.htm.system import (
    BaseTMSystem,
    CommitResult,
    LoadResult,
    StoreResult,
    _STORE_HIT,
)
from repro.mem.address import blocks_spanned


class LazyTMSystem(BaseTMSystem):
    def __init__(self, config, memory, fabric, stats, policy="timestamp"):
        super().__init__(config, memory, fabric, stats, policy)
        self._read_sets: list[set[int]] = [
            set() for _ in range(config.ncores)
        ]
        self._write_buffers: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(config.ncores)
        ]
        #: write-set blocks, maintained only under a write-set bound
        #: (the write buffer is addr-keyed, so block counting would
        #: otherwise cost a scan per store)
        self._write_blocks: list[set[int]] = [
            set() for _ in range(config.ncores)
        ]

    # ------------------------------------------------------------------
    def begin(self, core: int, restart: bool = False) -> None:
        super().begin(core, restart)
        self._read_sets[core].clear()
        self._write_buffers[core].clear()
        self._write_blocks[core].clear()

    def _rollback(self, core: int, reason: str, remote: bool) -> None:
        # Clear after the base body: it observes set occupancy while
        # the sets are still populated.
        super()._rollback(core, reason, remote)
        self._read_sets[core].clear()
        self._write_buffers[core].clear()
        self._write_blocks[core].clear()

    def _observe_occupancy(self, core: int) -> None:
        self._h_read_set.observe(len(self._read_sets[core]))
        buffer = self._write_buffers[core]
        self._h_write_set.observe(len({
            block
            for addr, (size, _value) in buffer.items()
            for block in blocks_spanned(addr, size)
        }))

    # ------------------------------------------------------------------
    def _compose(self, core: int, addr: int, size: int) -> int:
        """Read through the write buffer over current memory bytes."""
        raw = bytearray(self.memory.read_bytes(addr, size))
        buffer = self._write_buffers[core]
        for start in range(addr - 7, addr + size):
            entry = buffer.get(start)
            if entry is None:
                continue
            esize, evalue = entry
            if start + esize <= addr or start >= addr + size:
                continue
            mask = (1 << (8 * esize)) - 1
            data = (evalue & mask).to_bytes(esize, "little")
            for i in range(esize):
                pos = start + i - addr
                if 0 <= pos < size:
                    raw[pos] = data[i]
        return int.from_bytes(bytes(raw), "little", signed=True)

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
        return LoadResult(
            value=self._compose(core, addr, size), latency=latency
        )

    def store(
        self,
        core: int,
        addr: int,
        size: int,
        value: int,
        sym: Optional[SymValue] = None,
    ) -> StoreResult:
        ctx = self.ctx[core]
        if not ctx.active:
            return super().store(core, addr, size, value)
        self._write_buffers[core][addr] = (size, value)
        if self._ws_limit is not None and not ctx.overflowed:
            blocks = self._write_blocks[core]
            for block in blocks_spanned(addr, size):
                blocks.add(block)
                if len(blocks) > self._ws_limit:
                    self._capacity_abort_structure(
                        core, "write_set", block
                    )
        return _STORE_HIT

    # ------------------------------------------------------------------
    def _pre_commit(self, core: int) -> CommitResult:
        buffer = self._write_buffers[core]
        write_blocks = {
            block
            for addr, (size, _value) in buffer.items()
            for block in blocks_spanned(addr, size)
        }
        # Committer wins: abort every conflicting in-flight transaction.
        for other in range(self.config.ncores):
            if other == core or not self.ctx[other].active:
                continue
            other_writes = {
                block
                for addr, (size, _v) in self._write_buffers[other].items()
                for block in blocks_spanned(addr, size)
            }
            if write_blocks & (self._read_sets[other] | other_writes):
                self._doom(other, reason="conflict")

        latency = 0
        for block in sorted(write_blocks):
            outcome = self.fabric.acquire(core, block, write=True)
            latency += outcome.latency
        for addr, (size, value) in buffer.items():
            self.memory.write(addr, value, size)
        # Sets are left intact so commit() can observe their occupancy;
        # begin() clears them before the next transaction.
        return CommitResult(latency=latency)
