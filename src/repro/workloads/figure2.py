"""``figure2`` — the paper's Figure 2 scenario.

Two threads repeatedly double-increment one shared counter: each
transaction loads, bumps and stores it twice, five cycles of work
after each store, and three cycles of non-transactional work follow
it.  ``scale`` sets the transactions per thread (two at 1.0).  There
are two threads whatever ``nthreads`` is: a wider machine leaves its
other cores idle, a one-core machine cannot run it.  The invariant is
the exact final count.
"""

from __future__ import annotations

from repro.isa.program import Assembler
from repro.isa.registers import R1
from repro.mem.memory import MainMemory
from repro.sim.script import ThreadScript
from repro.workloads.base import (
    GeneratedWorkload,
    InvariantResult,
    Workload,
    WorkloadSpec,
)

COUNTER = 4096
INCREMENTS = 2


class Figure2Workload(Workload):
    spec = WorkloadSpec(
        name="figure2",
        description="Figure 2: two threads double-incrementing a counter",
    )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        txns = self.scaled(2, scale)
        scripts = []
        for _thread in range(2):
            script = ThreadScript()
            for _ in range(txns):
                asm = Assembler()
                for _ in range(INCREMENTS):
                    asm.load(R1, COUNTER)
                    asm.addi(R1, R1, 1)
                    asm.store(R1, COUNTER)
                    asm.nop(5)
                script.add_txn(asm.build(), label="counter")
                script.add_work(3)
            scripts.append(script)
        expected = 2 * txns * INCREMENTS

        def check(memory: MainMemory) -> InvariantResult:
            actual = memory.read(COUNTER)
            return InvariantResult(
                "counter", actual == expected, f"{actual} (expected {expected})"
            )

        return GeneratedWorkload(MainMemory(), scripts, [check])
