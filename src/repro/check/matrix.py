"""Check matrices: what ``repro check`` actually runs.

Two halves, matching the subsystem's promise:

* the **oracle matrix** — a (workload x system) grid executed through
  the experiment engine with ``check=True``, so every point runs with
  the replay-based repair oracle attached and its final state diffed
  against a sequential golden run.  All three signals (workload
  invariants, oracle violations, golden diff) must pass.
* the **fault matrix** — a self-test of the oracle: for every fault
  point in :data:`repro.check.faults.FAULT_POINTS`, a deliberately
  contended microbenchmark is run on ``retcon`` and ``retcon-fwd``
  with that corruption injected at every commit, and the oracle must
  report at least one violation; the plan-store faults run on the
  ``lazy`` and ``stm`` write-buffer commits too (:data:`FAULT_ROWS`).
  A control trial per row with no fault injected must report none.

The fault microbenchmark is deterministic (fixed seeds, deterministic
scheduler), so even the contention-dependent faults — dropped register
repairs, cleared constraints/equality bits, which only diverge when a
tracked block really was stolen and changed — reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.check.faults import FAULT_POINTS, FaultInjector
from repro.check.oracle import RepairOracle
from repro.exp.spec import Point, smoke_spec
from repro.isa.instructions import Cond
from repro.isa.program import Assembler, Program
from repro.isa.registers import R1, R2
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript

#: the fault matrix's rows, each with the faults its commit plan can
#: carry: a RETCON engine holds every structure the catalog corrupts
#: (None), a lazy or STM plan is only its write buffer's runs
FAULT_ROWS = {
    "retcon": None,
    "retcon-fwd": None,
    "lazy": ("plan-store-drop", "plan-store-skew"),
    "stm": ("plan-store-drop", "plan-store-skew"),
}


def check_spec(
    smoke: bool = False,
    ncores: int = 8,
    seed: int = 1,
) -> list[Point]:
    """The oracle-matrix grid for ``repro check``.

    ``smoke=True`` reuses the CI smoke grid (3 workloads x 3 systems at
    scale 0.1) with checking enabled; the default grid covers more
    workload shapes at a slightly larger scale.
    """
    if smoke:
        return [replace(point, check=True) for point in smoke_spec()]
    return [
        Point(workload, system, ncores=ncores, seed=seed, scale=0.25,
              check=True)
        for workload in (
            "python_opt",
            "genome-sz",
            "kmeans",
            "intruder_opt",
            "vacation_opt",
            "ssca2",
        )
        for system in ("eager", "lazy-vb", "retcon")
    ]


# ----------------------------------------------------------------------
# The contended fault microbenchmark
# ----------------------------------------------------------------------
SHARED_ADDR = 4096
PRIVATE_BASE = 8192
PRIVATE_STRIDE = 256


def _sym_txn(threshold: int, private: int) -> Program:
    """Symbolic counter increment with a threshold-guarded marker.

    The branch on the symbolic counter records an interval constraint;
    the taken and fall-through paths write markers to *different*
    private addresses (eagerly — the private block is never
    conflicted), so a commit whose constraint should have failed
    diverges visibly in both control flow and final memory.  The
    4-byte symbolic store gives the SSB a multi-width entry, and the
    symbolic overwrite of an eagerly-stored wide constant leaves
    nonzero bytes under the drain's upper half, so even a truncated
    drain is visible.
    """
    asm = Assembler()
    big = asm.fresh_label("big")
    end = asm.fresh_label("end")
    asm.load(R1, SHARED_ADDR)
    asm.addi(R1, R1, 1)
    asm.store(R1, SHARED_ADDR)
    asm.store(R1, private + 16, size=4)
    asm.store(0x7FFF_FFFF_FFFF, private + 32)
    asm.store(R1, private + 32)
    asm.br(Cond.GT, R1, threshold, big)
    asm.store(111, private)
    asm.jump(end)
    asm.mark(big)
    asm.store(222, private + 8)
    asm.mark(end)
    asm.halt()
    return asm.build()


def _pin_txn(private: int) -> Program:
    """Counter increment whose untrackable use pins the counter.

    ``mul`` cannot be tracked symbolically, so the engine places an
    equality constraint on the counter's block; the product is stored
    privately, making a wrongly-accepted stale value visible.
    """
    asm = Assembler()
    asm.load(R1, SHARED_ADDR)
    asm.addi(R1, R1, 1)
    asm.store(R1, SHARED_ADDR)
    asm.mul(R2, R1, 3)
    asm.store(R2, private + 24)
    asm.halt()
    return asm.build()


def fault_scenario(
    ncores: int = 4, txns_per_core: int = 32
) -> tuple[list[ThreadScript], MainMemory, MachineConfig]:
    """Build the deterministic contended scenario the fault matrix runs.

    Every core hammers one shared counter, alternating the
    symbolic-threshold transaction with the equality-pin transaction.
    Thresholds advance with the core's transaction index so that the
    counter crosses some in-flight threshold throughout the run —
    that keeps interval constraints *live* (violations occur), which
    the constraint-clearing faults need in order to be observable.
    """
    memory = MainMemory()
    memory.write(SHARED_ADDR, 0)
    scripts = []
    for core in range(ncores):
        private = PRIVATE_BASE + core * PRIVATE_STRIDE
        script = ThreadScript()
        for j in range(txns_per_core):
            if j % 2 == 0:
                threshold = ncores * j + core
                script.add_txn(
                    _sym_txn(threshold, private), label="sym"
                )
            else:
                script.add_txn(_pin_txn(private), label="pin")
            script.add_work(2)
        scripts.append(script)
    config = MachineConfig().with_cores(ncores)
    return scripts, memory, config


@dataclass
class FaultTrial:
    """Outcome of one fault-injection run."""

    fault: Optional[str]  # None = control (no injection)
    system: str
    stage: str
    fires: int
    checked_commits: int
    violations: int
    kinds: dict[str, int] = field(default_factory=dict)

    @property
    def caught(self) -> bool:
        """Did the run behave as required?

        An injected fault must produce at least one violation; the
        control run must produce none.
        """
        if self.fault is None:
            return self.violations == 0
        return self.fires > 0 and self.violations > 0


def run_fault_trial(
    fault: Optional[str],
    system: str = "retcon",
    seed: int = 0,
    ncores: int = 4,
    txns_per_core: int = 32,
) -> FaultTrial:
    """Run the contended scenario on *system* with *fault* injected
    (None = clean)."""
    scripts, memory, config = fault_scenario(ncores, txns_per_core)
    oracle = RepairOracle()
    machine = Machine(
        config,
        system,
        scripts,
        memory,
        label=f"fault:{fault or 'control'}/{system}",
        check=oracle,
    )
    injector = None
    if fault is not None:
        injector = FaultInjector(fault, seed=seed)
        machine.system.fault_injector = injector
    machine.run(max_cycles=50_000_000)
    return FaultTrial(
        fault=fault,
        system=system,
        stage=injector.point.stage if injector else "-",
        fires=injector.fires if injector else 0,
        checked_commits=oracle.checked_commits,
        violations=oracle.total_violations,
        kinds=dict(oracle.summary()["by_kind"]),
    )


def run_fault_matrix(
    faults: Optional[Sequence[str]] = None,
    seed: int = 0,
    ncores: int = 4,
    txns_per_core: int = 32,
) -> list[FaultTrial]:
    """Run, per row of :data:`FAULT_ROWS`, the control plus every fault
    point the row carries (of *faults*, if given); return all trials."""
    names = list(faults) if faults is not None else sorted(FAULT_POINTS)
    return [
        run_fault_trial(
            name, system, seed=seed, ncores=ncores,
            txns_per_core=txns_per_core,
        )
        for system, carried in FAULT_ROWS.items()
        for name in [None] + [n for n in names if n in (carried or names)]
    ]
