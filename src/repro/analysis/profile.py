"""Simulator wall-clock profiling: the ``repro profile`` command.

Everything else in the repo measures *simulated* cycles; this module
measures how fast the simulator itself runs them.  It times each point
of the smoke grid (the same grid as ``repro sweep --smoke``), keeping
workload generation out of the measured region so the numbers isolate
the interpreter + memory-system hot path, and reports wall seconds and
simulated cycles per second.

The JSON payload (``repro profile -o BENCH_pr3.json``) is the repo's
perf trajectory format: one record per sweep point plus a grid total,
so successive PRs can be compared point-for-point.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from repro.exp.spec import smoke_spec
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.registry import get_workload


@dataclass
class PointProfile:
    """Wall-clock measurements for one (workload, system) sweep point."""

    workload: str
    system: str
    ncores: int
    seed: int
    scale: float
    repeats: int
    #: one-time workload generation, excluded from the simulation timing
    gen_seconds: float
    #: best-of-``repeats`` simulation wall time
    sim_seconds: float
    #: mean over ``repeats`` (noise indicator next to the best)
    sim_seconds_mean: float
    #: simulated makespan of the run
    cycles: int
    commits: int
    #: simulated cycles per wall second at the best repeat
    cycles_per_second: float


def profile_point(
    workload: str,
    system: str,
    ncores: int,
    seed: int,
    scale: float,
    repeats: int = 3,
) -> PointProfile:
    """Time *repeats* simulations of one point; keep the best."""
    config = MachineConfig().with_cores(ncores)
    start = time.perf_counter()
    generated = get_workload(workload).generate(ncores, seed=seed, scale=scale)
    gen_seconds = time.perf_counter() - start

    times = []
    cycles = commits = 0
    for _ in range(repeats):
        machine = Machine(
            config, system, generated.scripts, generated.memory.clone()
        )
        start = time.perf_counter()
        result = machine.run()
        times.append(time.perf_counter() - start)
        cycles = result.cycles
        commits = result.commits
    best = min(times)
    return PointProfile(
        workload=workload,
        system=system,
        ncores=ncores,
        seed=seed,
        scale=scale,
        repeats=repeats,
        gen_seconds=round(gen_seconds, 6),
        sim_seconds=round(best, 6),
        sim_seconds_mean=round(sum(times) / len(times), 6),
        cycles=cycles,
        commits=commits,
        cycles_per_second=round(cycles / best, 1) if best > 0 else 0.0,
    )


def profile_smoke(
    scale: float = 0.1,
    ncores: int = 4,
    seed: int = 1,
    repeats: int = 3,
    progress=None,
) -> list[PointProfile]:
    """Profile every point of the smoke grid (generation untimed)."""
    profiles = []
    for point in smoke_spec(scale=scale, ncores=ncores, seed=seed).points():
        profile = profile_point(
            point.workload,
            point.system,
            point.ncores,
            point.seed,
            point.scale,
            repeats=repeats,
        )
        profiles.append(profile)
        if progress is not None:
            progress(profile)
    return profiles


def bench_payload(profiles: list[PointProfile], label: str) -> dict:
    """The BENCH_*.json structure for a profiled grid."""
    total = sum(p.sim_seconds for p in profiles)
    cycles = sum(p.cycles for p in profiles)
    return {
        "bench": "simulator-hot-path",
        "label": label,
        "metric": (
            "wall seconds per smoke sweep point (best of N repeats, "
            "workload generation excluded) and simulated cycles/second"
        ),
        "grid": "smoke (3 workloads x 3 systems)",
        "total_sim_seconds": round(total, 6),
        "total_cycles": cycles,
        "grid_cycles_per_second": round(cycles / total, 1) if total else 0.0,
        "points": [asdict(p) for p in profiles],
    }


def write_bench(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
