"""``service-session`` — a session store with TTL touch and eviction.

Every request refreshes the session of a Zipf-popular user: it loads
the session's expiry word and extends it to the request's deadline if
(and only if) that is later — a **max-fold**, so the final expiry of a
slot is the maximum over all deadlines that touched it in *any*
serialization order.  A sweeper duty rides along: each thread also
owns a share of a stale-session table and evicts each stale slot
exactly once, bumping a hot shared ``evicted`` counter under a branch
— the peripheral-counter-behind-control-flow shape RETCON repairs
with a constraint pin (Figure 6) and eager HTMs serialize on.

Layout::

    stats block : touches (8B) | evicted (8B)          (one hot block)
    live slots  : NSLOTS x 8B expiry words             (hot, Zipf-mapped)
    stale slots : nthreads x STALE_PER_THREAD x 8B     (swept once each)

Invariants (all serialization-order independent):

* each live expiry == max over the deadlines generated for its slot;
* every stale slot is zero, and ``evicted`` == number of stale slots;
* ``touches`` == total touch transactions.
"""

from __future__ import annotations

from repro.isa.instructions import Cond
from repro.isa.program import Assembler
from repro.isa.registers import R1, R2, R3
from repro.mem.address import BLOCK_SIZE
from repro.mem.memory import MainMemory
from repro.sim.script import ThreadScript
from repro.workloads.base import (
    GeneratedWorkload,
    InvariantResult,
    WorkloadSpec,
)
from repro.workloads.service.base import ServiceWorkload
from repro.workloads.service.traffic import TrafficModel


class SessionStoreWorkload(ServiceWorkload):
    STREAM_SALT = 1
    REQUESTS_PER_THREAD = 22
    #: live session slots (small: popular users collide — that is the
    #: point; a session cache holds the hot working set)
    NSLOTS = 24
    #: stale sessions each thread sweeps
    STALE_PER_THREAD = 3
    #: base deadline; per-request deadlines grow from here
    EPOCH = 1_000

    def __init__(self) -> None:
        self.spec = WorkloadSpec(
            name="service-session",
            description=(
                "Session store: TTL touch (max-fold expiry) on "
                "Zipf-hot slots + one-shot stale-session eviction "
                "bumping a shared counter under a branch"
            ),
            parameters=(
                f"slots {self.NSLOTS}, "
                f"{self.STALE_PER_THREAD} stale/thread, Zipf sessions"
            ),
        )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        memory, alloc, _rng = self._begin()
        traffic = TrafficModel(seed)
        requests, owner = self._stream(traffic, nthreads, scale)

        stats = alloc.alloc_block(16)
        touches_addr, evicted_addr = stats, stats + 8
        memory.write(touches_addr, 0)
        memory.write(evicted_addr, 0)

        live_base = alloc.alloc(self.NSLOTS * 8, align=BLOCK_SIZE)
        for slot in range(self.NSLOTS):
            memory.write(live_base + 8 * slot, self.EPOCH)

        nstale = self.scaled(self.STALE_PER_THREAD, scale) * nthreads
        stale_base = alloc.alloc(max(8, nstale * 8), align=BLOCK_SIZE)
        for slot in range(nstale):
            # Pre-expired sessions: any non-zero value is "present".
            memory.write(stale_base + 8 * slot, self.EPOCH - 1)

        expected_expiry = [self.EPOCH] * self.NSLOTS
        scripts = [ThreadScript() for _ in range(nthreads)]
        stale_cursor = 0
        for req in requests:
            script = scripts[owner[req.index]]
            script.add_work(req.gap)

            slot = req.user % self.NSLOTS
            slot_addr = live_base + 8 * slot
            # Deadline strictly increases with arrival index, with
            # per-request jitter so late requests can still lose the
            # fold (a shorter TTL class, e.g. an unauthenticated
            # session).
            deadline = self.EPOCH + 8 * req.index + (req.aux & 0x3F)
            expected_expiry[slot] = max(expected_expiry[slot], deadline)

            asm = Assembler()
            done = asm.fresh_label("touch_done")
            asm.load(R1, slot_addr)
            asm.movi(R2, deadline)
            asm.br(Cond.GE, R1, R2, done)  # already later: no extend
            asm.store(R2, slot_addr)
            asm.mark(done)
            asm.load(R3, touches_addr)
            asm.addi(R3, R3, 1)
            asm.store(R3, touches_addr)
            script.add_txn(asm.build(), label="touch")

            # Interleave eviction duty through the stream so sweeps
            # contend with touches rather than clustering at the end.
            if stale_cursor < nstale and req.index % 7 == 3:
                slot_addr = stale_base + 8 * stale_cursor
                stale_cursor += 1
                asm = Assembler()
                keep = asm.fresh_label("evict_done")
                asm.load(R1, slot_addr)
                asm.br(Cond.EQ, R1, 0, keep)  # already gone
                asm.movi(R2, 0)
                asm.store(R2, slot_addr)
                asm.load(R3, evicted_addr)
                asm.addi(R3, R3, 1)
                asm.store(R3, evicted_addr)
                asm.mark(keep)
                script.add_txn(asm.build(), label="evict")
        # Sweep any stale slots the stream's stride did not reach.
        for slot in range(stale_cursor, nstale):
            script = scripts[slot % nthreads]
            slot_addr = stale_base + 8 * slot
            asm = Assembler()
            keep = asm.fresh_label("evict_done")
            asm.load(R1, slot_addr)
            asm.br(Cond.EQ, R1, 0, keep)
            asm.movi(R2, 0)
            asm.store(R2, slot_addr)
            asm.load(R3, evicted_addr)
            asm.addi(R3, R3, 1)
            asm.store(R3, evicted_addr)
            asm.mark(keep)
            script.add_txn(asm.build(), label="evict")

        ntouches = len(requests)

        def check_ttl(mem: MainMemory) -> InvariantResult:
            for slot in range(self.NSLOTS):
                actual = mem.read(live_base + 8 * slot)
                if actual != expected_expiry[slot]:
                    return InvariantResult(
                        "session-ttl",
                        False,
                        f"slot {slot}: expiry {actual} != "
                        f"max deadline {expected_expiry[slot]}",
                    )
            return InvariantResult(
                "session-ttl", True, "expiries are fold maxima"
            )

        def check_eviction(mem: MainMemory) -> InvariantResult:
            for slot in range(nstale):
                actual = mem.read(stale_base + 8 * slot)
                if actual != 0:
                    return InvariantResult(
                        "session-evict",
                        False,
                        f"stale slot {slot} not evicted ({actual})",
                    )
            evicted = mem.read(evicted_addr)
            if evicted != nstale:
                return InvariantResult(
                    "session-evict",
                    False,
                    f"evicted counter {evicted} != {nstale} stale slots",
                )
            return InvariantResult(
                "session-evict", True, f"{nstale} evicted once each"
            )

        def check_touches(mem: MainMemory) -> InvariantResult:
            touches = mem.read(touches_addr)
            if touches != ntouches:
                return InvariantResult(
                    "session-touches",
                    False,
                    f"touches {touches} != {ntouches} requests",
                )
            return InvariantResult(
                "session-touches", True, f"{ntouches} touches counted"
            )

        return GeneratedWorkload(
            memory=memory,
            scripts=scripts,
            checks=[check_ttl, check_eviction, check_touches],
        )
