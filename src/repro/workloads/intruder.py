"""``intruder`` — network packet intrusion detection (STAMP).

Pipeline: dequeue a packet from a capture queue, reassemble fragments
in a shared map, enqueue the decoded packet for detection.

* unoptimized: both queues are shared and highly contended, and the
  map is a tree with rebalancing — conflicts everywhere, and the
  queue indices are used as addresses, so RETCON cannot repair them
  (§5.4: intruder is one of the workloads RETCON does not help).
* ``intruder_opt``: thread-private queues and a fixed-size hashtable
  (the paper's restructuring): scales well on every system.
* ``intruder_opt-sz``: the same but with the resizable hashtable —
  size-field conflicts return, and RETCON repairs them (the paper's
  6x → 21x, a 211% speedup over lazy-vb).
"""

from __future__ import annotations

from repro.isa.program import Assembler
from repro.mem.allocator import BumpAllocator
from repro.mem.memory import MainMemory
from repro.sim.script import ThreadScript
from repro.workloads.base import (
    GeneratedWorkload,
    InvariantResult,
    Workload,
    WorkloadSpec,
    make_rng,
)
from repro.workloads.structures.hashtable import SimHashTable
from repro.workloads.structures.queue import SimQueue
from repro.workloads.structures.tree import SimTree


class IntruderWorkload(Workload):
    PACKETS_PER_THREAD = 36
    TXN_BUSY = 400
    WORK_BUSY = 100
    NBUCKETS = 256
    TREE_KEYS = 128

    def __init__(self, optimized: bool, resizable: bool) -> None:
        if resizable and not optimized:
            raise ValueError("-sz exists only for the _opt variant")
        self.optimized = optimized
        self.resizable = resizable
        name = "intruder"
        description = (
            "From STAMP, network packet intrusion detection program"
        )
        if optimized:
            name += "_opt"
            description += ", thread-private queues"
            if resizable:
                name += "-sz"
                description += ", resizable hashtable"
            else:
                description += ", fixed-size hashtable"
        self.spec = WorkloadSpec(
            name=name, description=description, parameters="a10 l4 n2038 s1"
        )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        memory = MainMemory()
        alloc = BumpAllocator()
        rng = make_rng(seed)
        packets = self.scaled(self.PACKETS_PER_THREAD, scale)
        total = packets * nthreads

        checks = []
        tree = None
        table = None
        if self.optimized:
            table = SimHashTable(
                memory,
                alloc,
                nbuckets=self.NBUCKETS,
                resizable=self.resizable,
                initial_threshold=max(8, total // 8),
            )
            checks.append(
                lambda mem: InvariantResult(
                    "fragment-map", *table.validate(mem)
                )
            )
        else:
            tree = SimTree(
                memory, alloc, keys=list(range(self.TREE_KEYS))
            )
            checks.append(
                lambda mem: InvariantResult(
                    "fragment-tree", *tree.validate(mem)
                )
            )

        # Queues: shared pair (unopt) or one private pair per thread.
        def make_queues(count: int) -> list[tuple[SimQueue, SimQueue]]:
            pairs = []
            for _ in range(count):
                capture = SimQueue(memory, alloc, capacity=total + 4)
                decoded = SimQueue(memory, alloc, capacity=total + 4)
                pairs.append((capture, decoded))
            return pairs

        if self.optimized:
            queue_pairs = make_queues(nthreads)
            for thread, (capture, _) in enumerate(queue_pairs):
                capture.prefill(
                    [1000 * thread + i for i in range(packets)]
                )
        else:
            queue_pairs = make_queues(1)
            queue_pairs[0][0].prefill(list(range(total)))

        for capture, decoded in queue_pairs:
            checks.append(
                lambda mem, q=capture: InvariantResult(
                    "capture-queue", *q.validate(mem)
                )
            )
            checks.append(
                lambda mem, q=decoded: InvariantResult(
                    "decoded-queue", *q.validate(mem)
                )
            )

        scripts = []
        for thread in range(nthreads):
            capture, decoded = (
                queue_pairs[thread] if self.optimized else queue_pairs[0]
            )
            script = ThreadScript()
            for p in range(packets):
                # STAMP intruder runs three separate atomic blocks per
                # packet: capture (queue pop), fragment reassembly (map
                # update), and handing off to detection (queue push).
                # Keeping the queue operations in their own short
                # transactions bounds how long the contended queue
                # indices are held.
                asm = Assembler()
                capture.emit_dequeue(asm)
                script.add_txn(asm.build(), label="capture")

                asm = Assembler()
                asm.nop(self.TXN_BUSY)
                if table is not None:
                    key = rng.randrange(1 << 30)
                    table.emit_insert(asm, key)
                else:
                    key = rng.randrange(self.TREE_KEYS)
                    tree.emit_update(asm, key, rng, rebalance_prob=0.15)
                script.add_txn(asm.build(), label="reassemble")

                asm = Assembler()
                decoded.emit_enqueue(asm, 1000 * thread + p)
                script.add_txn(asm.build(), label="handoff")
                script.add_work(self.WORK_BUSY)
            scripts.append(script)

        return GeneratedWorkload(
            memory=memory, scripts=scripts, checks=checks
        )
