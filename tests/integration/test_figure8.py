"""The paper's Figure 8 worked example, driven through the real system.

A transaction on core 0 symbolically tracks block A, computes through
registers and the symbolic store buffer, loses A to a remote write,
and repairs everything at commit:

    1. ld [A] -> r1          (A = 5 initially)
    2. r2 = r1 + 1
    3. br r2 > 1 (taken)     constraint: A > 0
    4. st r2 -> [B]          SSB: B = A+1
    5. ld [B] -> r1          bypass: r1 = A+1   (remote write A := 6)
    6. r1 = r1 + 2           r1 = A+3
    7. br r1 < 10 (taken)    constraint: A < 7
    8. st r1 -> [A]          SSB: A = A+3
    9. st 0 -> [B]           non-symbolic: invalidates B's SSB entry
   10. commit: reload A (= 6), check 0 < 6 < 7, drain A := 6+3 = 9,
       repair r1 := 9.
"""

import pytest

from repro.coherence.directory import CoherenceFabric
from repro.htm.events import TxnAborted
from repro.htm.system import RetconTMSystem
from repro.isa.instructions import Cond
from repro.mem.address import block_of
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.stats import MachineStats

A = 0x1000
B = 0x2000


def build_system():
    config = small_test_config(ncores=2)
    memory = MainMemory()
    memory.write(A, 5)
    memory.write(B, 7)
    fabric = CoherenceFabric(config, config.ncores)
    stats = MachineStats(config.ncores)
    system = RetconTMSystem(config, memory, fabric, stats)
    # The predictor has seen conflicts on A's block before.
    system.engine(0).predictor.observe_conflict(block_of(A))
    return system, memory


def run_figure8(system, memory, remote_value):
    """Execute steps 1-9 on core 0 with a remote write of
    *remote_value* to A at step 5, then commit."""
    engine = system.engine(0)
    system.begin(0)

    r1 = system.load(0, A, 8)  # 1
    assert (r1.value, r1.sym.delta) == (5, 0)
    assert engine.ivb.get(block_of(A)).read_initial(A, 8) == 5

    engine.alu("add", 2, r1.sym, None, r1.value, 1)  # 2: r2 = A+1
    engine.on_branch(Cond.GT, engine.reg_sym(2), None, 6, 1, True)  # 3
    system.store(0, B, 8, 6, sym=engine.reg_sym(2))  # 4
    assert engine.ssb.lookup(B, 8).sym.delta == 1

    r1b = system.load(0, B, 8)  # 5: store-to-load bypass
    assert (r1b.value, r1b.sym.delta) == (6, 1)
    engine.set_reg_sym(1, r1b.sym)

    # Remote write steals A mid-transaction.
    system.store(1, A, 8, remote_value)
    assert engine.ivb.get(block_of(A)).lost

    engine.alu("add", 1, engine.reg_sym(1), None, 6, 2)  # 6: r1 = A+3
    engine.on_branch(Cond.LT, engine.reg_sym(1), None, 8, 10, True)  # 7
    system.store(0, A, 8, 8, sym=engine.reg_sym(1))  # 8
    system.store(0, B, 8, 0, sym=None)  # 9
    assert engine.ssb.lookup(B, 8) is None  # entry invalidated

    return system.commit(0)


class TestFigure8:
    def test_successful_repair(self):
        system, memory = build_system()
        latency, plan = run_figure8(system, memory, remote_value=6)
        # A repaired to the remote value plus the increments: 6+3 = 9.
        assert memory.read(A) == 9
        assert memory.read(B) == 0
        # r1's concrete value is repaired in the register file.
        assert (1, 9) in plan.registers
        # r2 = A+1 is repaired as well.
        assert (2, 7) in plan.registers
        assert latency > 0  # reacquired a lost block

    def test_constraint_violation_aborts(self):
        system, memory = build_system()
        # Remote value 7 violates the recorded constraint A < 7.
        with pytest.raises(TxnAborted, match="constraint"):
            run_figure8(system, memory, remote_value=7)
        # Eager version management restored B (its eager store rolled
        # back); A keeps the committed remote value.
        assert memory.read(A) == 7
        assert memory.read(B) == 7

    def test_violation_trains_predictor_down(self):
        system, memory = build_system()
        with pytest.raises(TxnAborted):
            run_figure8(system, memory, remote_value=0)  # violates A > 0
        predictor = system.engine(0).predictor
        assert not predictor.should_track(block_of(A))
