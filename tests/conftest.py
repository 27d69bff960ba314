"""Shared test fixtures and program-building helpers."""

from __future__ import annotations

import pytest

from repro.isa.program import Assembler, Program
from repro.isa.registers import R1
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig, small_test_config
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript


@pytest.fixture
def memory() -> MainMemory:
    return MainMemory()


@pytest.fixture
def config() -> MachineConfig:
    return small_test_config()


def counter_increment_txn(
    addr: int, increments: int = 1, busy: int = 0, delta: int = 1
) -> Program:
    """A transaction performing `increments` += `delta` on [addr]."""
    asm = Assembler()
    for _ in range(increments):
        asm.load(R1, addr)
        asm.addi(R1, R1, delta)
        asm.store(R1, addr)
        if busy:
            asm.nop(busy)
    return asm.build()


def run_counter_machine(
    system: str,
    ncores: int,
    txns_per_core: int,
    addr: int = 4096,
    increments: int = 2,
    busy: int = 3,
    config: MachineConfig | None = None,
    tracer=None,
    metrics=None,
    check=False,
):
    """Build and run the shared-counter microbenchmark; return
    (RunResult, final counter value)."""
    memory = MainMemory()
    memory.write(addr, 0)
    scripts = []
    for _ in range(ncores):
        script = ThreadScript()
        for _ in range(txns_per_core):
            script.add_txn(counter_increment_txn(addr, increments, busy))
            script.add_work(2)
        scripts.append(script)
    machine_config = (config or MachineConfig()).with_cores(ncores)
    machine = Machine(
        machine_config, system, scripts, memory,
        tracer=tracer, metrics=metrics, check=check,
    )
    result = machine.run(max_cycles=50_000_000)
    return result, memory.read(addr)
