"""``service-checkout`` — inventory checkout with contended hot SKUs.

Each request tries to buy one unit of a Zipf-popular SKU: load the
stock word, branch on sold-out, decrement, bump the shared order
total and the thread's private sold/failed tally.  Stock starts low
on purpose — the hot SKUs sell out mid-run, so the workload exercises
both sides of the branch under contention: while stock is high the
decrement is pure auxiliary data (RETCON repairs it), and near zero
the ``LE 0`` branch pins the repaired value's sign, forcing
re-execution exactly when the flash-sale item runs out — overselling
is the bug the branch exists to prevent.

Invariants (order-independent — stock decrements monotonically with a
floor, so its final value is ``max(0, initial - attempts)`` in every
serialization):

* 0 <= final stock <= initial stock per SKU, and final ==
  max(0, initial - attempts);
* units sold (initial - final summed) == shared order total == sum of
  private sold tallies (no unit sold twice, none vanish);
* sold + failed == stream length.
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


class CheckoutWorkload(ServiceWorkload):
    STREAM_SALT = 4
    REQUESTS_PER_THREAD = 24
    #: SKU stock words; popular users hammer the low SKUs
    NSKUS = 12
    #: initial stock per SKU — low enough that hot SKUs sell out
    INITIAL_STOCK = 10

    def __init__(self) -> None:
        self.spec = WorkloadSpec(
            name="service-checkout",
            description=(
                "Inventory checkout: branch-guarded stock decrement "
                "on Zipf-hot SKUs that sell out mid-run, with order "
                "conservation across shared and private tallies"
            ),
            parameters=(
                f"skus {self.NSKUS}, stock {self.INITIAL_STOCK}"
            ),
        )

    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        memory, alloc, _rng = self._begin()
        traffic = TrafficModel(seed)
        requests, owner = self._stream(traffic, nthreads, scale)

        orders_addr = alloc.alloc_block(8)
        memory.write(orders_addr, 0)
        stock_base = alloc.alloc(self.NSKUS * 8, align=BLOCK_SIZE)
        for sku in range(self.NSKUS):
            memory.write(stock_base + 8 * sku, self.INITIAL_STOCK)
        # Private tallies: sold at +0, failed at +8, one block/thread.
        tally_addrs = [alloc.alloc_block(16) for _ in range(nthreads)]
        for addr in tally_addrs:
            memory.write(addr, 0)
            memory.write(addr + 8, 0)

        attempts = [0] * self.NSKUS
        scripts = [ThreadScript() for _ in range(nthreads)]
        for req in requests:
            thread = owner[req.index]
            script = scripts[thread]
            script.add_work(req.gap)

            sku = req.user % self.NSKUS
            attempts[sku] += 1
            stock_addr = stock_base + 8 * sku
            sold_addr = tally_addrs[thread]
            failed_addr = tally_addrs[thread] + 8

            asm = Assembler()
            soldout = asm.fresh_label("co_soldout")
            done = asm.fresh_label("co_done")
            asm.load(R1, stock_addr)
            asm.br(Cond.LE, R1, 0, soldout)
            asm.subi(R1, R1, 1)
            asm.store(R1, stock_addr)  # take the unit
            asm.load(R2, orders_addr)
            asm.addi(R2, R2, 1)
            asm.store(R2, orders_addr)
            asm.load(R3, sold_addr)
            asm.addi(R3, R3, 1)
            asm.store(R3, sold_addr)
            asm.jump(done)
            asm.mark(soldout)
            asm.load(R3, failed_addr)
            asm.addi(R3, R3, 1)
            asm.store(R3, failed_addr)
            asm.mark(done)
            script.add_txn(asm.build(), label="checkout")

        nrequests = len(requests)
        expected_stock = [
            max(0, self.INITIAL_STOCK - n) for n in attempts
        ]

        def check_stock(mem: MainMemory) -> InvariantResult:
            for sku in range(self.NSKUS):
                actual = mem.read(stock_base + 8 * sku)
                if actual < 0 or actual > self.INITIAL_STOCK:
                    return InvariantResult(
                        "checkout-stock",
                        False,
                        f"sku {sku}: stock {actual} outside "
                        f"[0, {self.INITIAL_STOCK}] — oversold",
                    )
                if actual != expected_stock[sku]:
                    return InvariantResult(
                        "checkout-stock",
                        False,
                        f"sku {sku}: stock {actual} != max(0, "
                        f"{self.INITIAL_STOCK} - {attempts[sku]}) = "
                        f"{expected_stock[sku]}",
                    )
            return InvariantResult(
                "checkout-stock", True, "no SKU oversold or undersold"
            )

        def check_orders(mem: MainMemory) -> InvariantResult:
            units_gone = sum(
                self.INITIAL_STOCK - mem.read(stock_base + 8 * s)
                for s in range(self.NSKUS)
            )
            orders = mem.read(orders_addr)
            sold = sum(mem.read(addr) for addr in tally_addrs)
            failed = sum(mem.read(addr + 8) for addr in tally_addrs)
            if units_gone != orders or orders != sold:
                return InvariantResult(
                    "checkout-orders",
                    False,
                    f"units gone {units_gone} / orders {orders} / "
                    f"sold {sold} disagree",
                )
            if sold + failed != nrequests:
                return InvariantResult(
                    "checkout-orders",
                    False,
                    f"sold {sold} + failed {failed} != "
                    f"{nrequests} requests",
                )
            return InvariantResult(
                "checkout-orders",
                True,
                f"{orders} orders conserve stock",
            )

        return GeneratedWorkload(
            memory=memory,
            scripts=scripts,
            checks=[check_stock, check_orders],
        )
