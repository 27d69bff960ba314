"""``service-feed`` — social-feed fan-out counters.

A publish request delivers one event to every follower's feed: the
transaction increments the unread counter of each follower feed the
event fans out to, then adds the fan-out size to a shared
``delivered`` total.  Follower sets are popularity-draws from the same
traffic model — celebrity feeds absorb most deliveries — so a handful
of feed counters are extremely hot while the write set per transaction
(1..MAX_FANOUT counters + the delivered total) is the widest of the
service suite.  Every store is an unconditional load/add/store chain:
RETCON's pure symbolic-repair case, with zero branch constraints — the
counterpoint to the limiter's branch-guarded buckets.

Invariants (exact in every serialization order — unconditional
commutative increments):

* every feed counter == the number of deliveries generated for it;
* sum of feed counters == shared ``delivered`` == sum of fan-outs;
* each thread's private ``published`` tally == its publish count.
"""

from __future__ import annotations

import random

from repro.isa.program import Assembler
from repro.isa.registers import R1, R2
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


class FeedFanoutWorkload(ServiceWorkload):
    STREAM_SALT = 3
    REQUESTS_PER_THREAD = 16
    #: follower feed counters (celebrity feeds are the hot low slots)
    NFEEDS = 20
    #: fan-out per publish is 1..MAX_FANOUT follower feeds
    MAX_FANOUT = 4

    def __init__(self) -> None:
        self.spec = WorkloadSpec(
            name="service-feed",
            description=(
                "Social-feed fan-out: each publish RMWs 1-"
                f"{self.MAX_FANOUT} Zipf-hot follower feed counters "
                "plus a shared delivered total (pure commutative "
                "increments, no branches)"
            ),
            parameters=(
                f"feeds {self.NFEEDS}, fanout <= {self.MAX_FANOUT}"
            ),
        )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        memory, alloc, _rng = self._begin()
        traffic = TrafficModel(seed)
        requests, owner = self._stream(traffic, nthreads, scale)

        delivered_addr = alloc.alloc_block(8)
        memory.write(delivered_addr, 0)
        feed_base = alloc.alloc(self.NFEEDS * 8, align=BLOCK_SIZE)
        for feed in range(self.NFEEDS):
            memory.write(feed_base + 8 * feed, 0)
        published_addrs = [alloc.alloc_block(8) for _ in range(nthreads)]
        for addr in published_addrs:
            memory.write(addr, 0)

        expected_feed = [0] * self.NFEEDS
        expected_published = [0] * nthreads
        total_fanout = 0
        scripts = [ThreadScript() for _ in range(nthreads)]
        for req in requests:
            thread = owner[req.index]
            script = scripts[thread]
            script.add_work(req.gap)

            # The follower set is request-private but fully determined
            # by the stream: req.aux seeds the draw, the model's
            # popularity table shapes it (celebrities == hot feeds).
            fan_rng = random.Random(req.aux)
            fanout = 1 + fan_rng.randrange(self.MAX_FANOUT)
            followers = sorted(
                {
                    traffic.draw_user(fan_rng) % self.NFEEDS
                    for _ in range(fanout)
                }
            )
            total_fanout += len(followers)
            expected_published[thread] += 1

            asm = Assembler()
            for feed in followers:
                feed_addr = feed_base + 8 * feed
                expected_feed[feed] += 1
                asm.load(R1, feed_addr)
                asm.addi(R1, R1, 1)
                asm.store(R1, feed_addr)
            asm.load(R1, delivered_addr)
            asm.addi(R1, R1, len(followers))
            asm.store(R1, delivered_addr)
            published_addr = published_addrs[thread]
            asm.load(R2, published_addr)
            asm.addi(R2, R2, 1)
            asm.store(R2, published_addr)
            script.add_txn(asm.build(), label="publish")

        def check_feeds(mem: MainMemory) -> InvariantResult:
            for feed in range(self.NFEEDS):
                actual = mem.read(feed_base + 8 * feed)
                if actual != expected_feed[feed]:
                    return InvariantResult(
                        "feed-counters",
                        False,
                        f"feed {feed}: {actual} != "
                        f"{expected_feed[feed]} deliveries",
                    )
            return InvariantResult(
                "feed-counters", True, "feed counters match deliveries"
            )

        def check_delivered(mem: MainMemory) -> InvariantResult:
            counted = sum(
                mem.read(feed_base + 8 * f) for f in range(self.NFEEDS)
            )
            delivered = mem.read(delivered_addr)
            if counted != delivered or delivered != total_fanout:
                return InvariantResult(
                    "feed-delivered",
                    False,
                    f"feed sum {counted} / delivered {delivered} / "
                    f"fanout sum {total_fanout} disagree",
                )
            published = sum(
                mem.read(addr) for addr in published_addrs
            )
            if published != len(requests):
                return InvariantResult(
                    "feed-delivered",
                    False,
                    f"published {published} != {len(requests)} requests",
                )
            return InvariantResult(
                "feed-delivered",
                True,
                f"{delivered} events delivered and conserved",
            )

        return GeneratedWorkload(
            memory=memory,
            scripts=scripts,
            checks=[check_feeds, check_delivered],
        )
