"""Simulator throughput: the one bench where wall-clock time is the
measurement (everything else measures *simulated* cycles).

Useful for tracking performance regressions in the simulator itself:
the interpreter executes a fixed conflict-free instruction mix and
pytest-benchmark reports instructions per second.
"""

from repro.isa.instructions import Cond
from repro.isa.program import Assembler
from repro.isa.registers import R1, R2
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript

from conftest import emit

INSTRUCTIONS_PER_TXN = 64
TXNS_PER_CORE = 40
NCORES = 4


def build_machine(system: str) -> Machine:
    scripts = []
    for core in range(NCORES):
        base = 0x10000 * (core + 1)  # disjoint: no conflicts
        script = ThreadScript()
        for _ in range(TXNS_PER_CORE):
            asm = Assembler()
            for i in range(INSTRUCTIONS_PER_TXN // 8):
                addr = base + 8 * i
                asm.load(R1, addr)
                asm.addi(R1, R1, 1)
                asm.store(R1, addr)
                asm.movi(R2, i)
                asm.cmp(R2, 3)
                label = asm.fresh_label("skip")
                asm.bcc(Cond.GT, label)
                asm.nop(1)
                asm.mark(label)
            script.add_txn(asm.build())
        scripts.append(script)
    return Machine(
        MachineConfig().with_cores(NCORES), system, scripts, MainMemory()
    )


def test_interpreter_throughput(benchmark):
    total_instructions = (
        NCORES * TXNS_PER_CORE * INSTRUCTIONS_PER_TXN
    )

    def run():
        machine = build_machine("eager")
        result = machine.run()
        assert result.commits == NCORES * TXNS_PER_CORE
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)
    mean = benchmark.stats["mean"]
    ips = total_instructions / mean
    emit(
        "Simulator throughput",
        f"{total_instructions} instructions in {mean * 1000:.0f} ms "
        f"-> {ips / 1000:.0f}k simulated instructions/second (eager)",
    )
    # Guard against order-of-magnitude interpreter regressions.
    assert ips > 20_000


def test_engine_parallel_speedup(benchmark):
    """Experiment-engine wall-clock: the smoke grid run serially vs
    with a worker pool.

    Records serial and parallel seconds (plus the ratio) in the
    benchmark's ``extra_info``.  On single-core CI runners the pool adds
    overhead instead of speedup, so the assertion only guards against
    pathological regressions (and checks result equivalence).
    """
    import json
    import os
    import time

    from repro.exp import run_points, smoke_spec

    jobs = max(2, min(4, os.cpu_count() or 1))
    points = smoke_spec(scale=0.2).points()

    def run_both():
        start = time.perf_counter()
        serial = run_points(points, jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_points(points, jobs=jobs)
        parallel_s = time.perf_counter() - start
        return serial, serial_s, parallel, parallel_s

    serial, serial_s, parallel, parallel_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    # Parallel execution must be a pure performance knob: identical
    # results, point for point.
    assert [
        json.dumps(r.to_dict(), sort_keys=True) for r in serial.values()
    ] == [
        json.dumps(r.to_dict(), sort_keys=True) for r in parallel.values()
    ]
    speedup = serial_s / max(parallel_s, 1e-9)
    benchmark.extra_info["engine_serial_s"] = round(serial_s, 3)
    benchmark.extra_info["engine_parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["engine_jobs"] = jobs
    benchmark.extra_info["engine_speedup"] = round(speedup, 2)
    emit(
        "Experiment engine: smoke grid wall-clock",
        f"serial {serial_s:.2f}s vs jobs={jobs} {parallel_s:.2f}s "
        f"-> {speedup:.2f}x ({os.cpu_count()} host cores)",
    )
    # The pool must never be catastrophically slower than serial (its
    # overhead is per-process startup, bounded regardless of host).
    assert parallel_s < 5.0 * serial_s + 2.0


def test_retcon_overhead_vs_eager(benchmark):
    """RETCON's per-access tracking hooks must not slow the simulator
    down by more than ~3x on conflict-free code."""
    import time

    def timed(system):
        machine = build_machine(system)
        start = time.perf_counter()
        machine.run()
        return time.perf_counter() - start

    def run():
        return timed("eager"), timed("retcon")

    eager_s, retcon_s = benchmark.pedantic(run, rounds=3, iterations=1)
    emit(
        "Simulator overhead of RETCON hooks",
        f"eager {eager_s * 1000:.0f} ms vs retcon "
        f"{retcon_s * 1000:.0f} ms (conflict-free workload)",
    )
    assert retcon_s < 4.0 * max(eager_s, 1e-9)
