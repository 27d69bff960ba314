"""Scaling sweeps: speedup as a function of core count.

The paper reports single 32-core numbers; the sweep utilities here
produce the full scaling curve (1..N cores) for any workload and
system, which is how Figure 9's "near-linear scaling" claim is
visualized and how crossover points between systems are located.

Sweeps are expressed as engine point grids (:mod:`repro.exp`): each
core count generates its workload and runs its sequential baseline
once, shared across every swept system, and independent (ncores,
system) points can execute in parallel worker processes via ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exp.cache import ResultCache
from repro.exp.engine import ProgressFn, run_points
from repro.exp.spec import Point
from repro.sim.config import MachineConfig

DEFAULT_CORE_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass
class SweepPoint:
    ncores: int
    speedup: float
    aborts: int
    conflict_fraction: float
    #: oracle + golden + invariant verdict (True when checking was off)
    check_ok: bool = True


def sweep_matrix(
    workload: str,
    systems: Sequence[str],
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    seed: int = 1,
    scale: float = 1.0,
    config: MachineConfig | None = None,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
    progress: ProgressFn | None = None,
    check: bool = False,
    skew: float | None = None,
    burst: str | None = None,
) -> dict[str, list[SweepPoint]]:
    """Run *workload* on every (system, core count) pair.

    The workload is regenerated per core count (its total work grows
    with the thread count, as in STAMP's self-scaling harness), and
    each point is normalized against its own sequential baseline —
    generated and run once per core count, shared across systems.
    """
    points = [
        Point(
            workload=workload,
            system=system,
            ncores=ncores,
            seed=seed,
            scale=scale,
            config=config,
            check=check,
            skew=skew,
            burst=burst,
        )
        for ncores in core_counts
        for system in systems
    ]
    results = run_points(
        points, jobs=jobs, cache=cache, refresh=refresh,
        progress=progress,
    )
    curves: dict[str, list[SweepPoint]] = {s: [] for s in systems}
    for point in points:
        result = results[point]
        curves[point.system].append(
            SweepPoint(
                ncores=point.ncores,
                speedup=result.speedup,
                aborts=result.aborts,
                conflict_fraction=result.breakdown["conflict"],
                check_ok=result.check_ok,
            )
        )
    return curves


def core_sweep(
    workload: str,
    system: str,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    **sweep_opts,
) -> list[SweepPoint]:
    """Run *workload* on *system* at each core count (``sweep_opts``
    are :func:`sweep_matrix`'s)."""
    return sweep_matrix(workload, (system,), core_counts, **sweep_opts)[
        system
    ]


def crossover_core_count(
    workload: str,
    better: str,
    worse: str,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    advantage: float = 1.25,
    **sweep_opts,
) -> int | None:
    """Smallest core count where *better* outruns *worse* by
    *advantage*; None if it never does.

    Used to answer "how many cores before RETCON pays off?" — at one
    core there are no conflicts to repair, so the systems tie; the
    crossover marks where conflict frequency makes repair matter.
    """
    curves = sweep_matrix(
        workload, (better, worse), core_counts, **sweep_opts
    )
    for b, w in zip(curves[better], curves[worse]):
        if b.speedup >= advantage * max(w.speedup, 1e-9):
            return b.ncores
    return None


def format_sweep(
    workload: str,
    curves: dict[str, list[SweepPoint]],
) -> str:
    """Render sweep curves as an aligned text table."""
    from repro.analysis.report import format_table

    core_counts = [p.ncores for p in next(iter(curves.values()))]
    headers = ["cores"] + [f"{name}" for name in curves]
    rows = []
    for i, ncores in enumerate(core_counts):
        rows.append(
            [ncores]
            + [f"{curve[i].speedup:.1f}x" for curve in curves.values()]
        )
    return f"{workload}\n" + format_table(headers, rows)
