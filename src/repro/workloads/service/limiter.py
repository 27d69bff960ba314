"""``service-limiter`` — a token-bucket rate limiter on hot counters.

Each request charges one token against the bucket of a Zipf-popular
user: load the bucket, branch on the limit, increment-or-reject, and
bump the thread's private accept/reject tally plus a shared
``requests`` counter.  The buckets are the canonical auxiliary-data
conflict: every transaction on a hot bucket read-modify-writes the
same word, so eager HTMs serialize on the hottest user while RETCON
repairs the addition at commit — and the ``GE limit`` branch adds the
constraint-pin case (the repaired bucket value must stay on the same
side of the limit, or the transaction re-executes).

Invariants (all serialization-order independent — a bucket only ever
increments, capped by the branch, so its final value is
``min(limit, attempts)`` under every order):

* every bucket == min(limit, attempts on that bucket) and <= limit;
* sum of buckets == sum of per-thread accepted tallies (token
  conservation: every accepted request took exactly one token);
* accepted + rejected == shared ``requests`` == stream length.
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


class RateLimiterWorkload(ServiceWorkload):
    STREAM_SALT = 2
    REQUESTS_PER_THREAD = 24
    #: token buckets; popular users collide on the low buckets
    NBUCKETS = 16
    #: tokens per bucket per run (low enough that hot users get limited)
    LIMIT = 12

    def __init__(self) -> None:
        self.spec = WorkloadSpec(
            name="service-limiter",
            description=(
                "Token-bucket rate limiter: branch-guarded RMW on "
                "Zipf-hot shared counters with private accept/reject "
                "tallies (token conservation)"
            ),
            parameters=f"buckets {self.NBUCKETS}, limit {self.LIMIT}",
        )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        memory, alloc, _rng = self._begin()
        traffic = TrafficModel(seed)
        requests, owner = self._stream(traffic, nthreads, scale)

        total_addr = alloc.alloc_block(8)
        memory.write(total_addr, 0)
        bucket_base = alloc.alloc(self.NBUCKETS * 8, align=BLOCK_SIZE)
        for bucket in range(self.NBUCKETS):
            memory.write(bucket_base + 8 * bucket, 0)
        # Private tallies: one false-sharing-free block per thread,
        # accepted at +0 and rejected at +8.
        tally_addrs = [alloc.alloc_block(16) for _ in range(nthreads)]
        for addr in tally_addrs:
            memory.write(addr, 0)
            memory.write(addr + 8, 0)

        attempts = [0] * self.NBUCKETS
        scripts = [ThreadScript() for _ in range(nthreads)]
        for req in requests:
            thread = owner[req.index]
            script = scripts[thread]
            script.add_work(req.gap)

            bucket = req.user % self.NBUCKETS
            attempts[bucket] += 1
            bucket_addr = bucket_base + 8 * bucket
            accepted_addr = tally_addrs[thread]
            rejected_addr = tally_addrs[thread] + 8

            asm = Assembler()
            reject = asm.fresh_label("limit_reject")
            done = asm.fresh_label("limit_done")
            asm.load(R1, bucket_addr)
            asm.br(Cond.GE, R1, self.LIMIT, reject)
            asm.addi(R1, R1, 1)
            asm.store(R1, bucket_addr)  # take the token
            asm.load(R2, accepted_addr)
            asm.addi(R2, R2, 1)
            asm.store(R2, accepted_addr)
            asm.jump(done)
            asm.mark(reject)
            asm.load(R2, rejected_addr)
            asm.addi(R2, R2, 1)
            asm.store(R2, rejected_addr)
            asm.mark(done)
            asm.load(R3, total_addr)
            asm.addi(R3, R3, 1)
            asm.store(R3, total_addr)
            script.add_txn(asm.build(), label="limit")

        nrequests = len(requests)
        expected_buckets = [
            min(self.LIMIT, n) for n in attempts
        ]

        def check_buckets(mem: MainMemory) -> InvariantResult:
            for bucket in range(self.NBUCKETS):
                actual = mem.read(bucket_base + 8 * bucket)
                if actual != expected_buckets[bucket]:
                    return InvariantResult(
                        "limiter-buckets",
                        False,
                        f"bucket {bucket}: {actual} != "
                        f"min(limit, {attempts[bucket]} attempts) = "
                        f"{expected_buckets[bucket]}",
                    )
            return InvariantResult(
                "limiter-buckets", True, "buckets at min(limit, attempts)"
            )

        def check_conservation(mem: MainMemory) -> InvariantResult:
            tokens = sum(
                mem.read(bucket_base + 8 * b)
                for b in range(self.NBUCKETS)
            )
            accepted = sum(mem.read(addr) for addr in tally_addrs)
            rejected = sum(mem.read(addr + 8) for addr in tally_addrs)
            total = mem.read(total_addr)
            if tokens != accepted:
                return InvariantResult(
                    "limiter-conservation",
                    False,
                    f"{tokens} tokens taken != {accepted} accepts",
                )
            if accepted + rejected != total or total != nrequests:
                return InvariantResult(
                    "limiter-conservation",
                    False,
                    f"accepted {accepted} + rejected {rejected} != "
                    f"total {total} (stream {nrequests})",
                )
            return InvariantResult(
                "limiter-conservation",
                True,
                f"{accepted} accepts conserve tokens",
            )

        return GeneratedWorkload(
            memory=memory,
            scripts=scripts,
            checks=[check_buckets, check_conservation],
        )
