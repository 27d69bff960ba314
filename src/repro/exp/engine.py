"""The experiment executor: baseline sharing, process pools, caching.

:func:`run_points` is the single path every figure, table, sweep,
benchmark, and CLI command funnels through.  It

1. resolves cached points (unless ``refresh``),
2. groups the misses by :meth:`Point.baseline_key` so each
   (workload, ncores, seed, scale, config) generates its workload and
   runs its sequential baseline exactly once, shared across systems,
3. executes the groups through :func:`run_tasks` — serially, or on
   its process pool when ``jobs > 1`` — and streams per-point progress,
4. stores fresh results in the cache (one entry per point, the trace
   of an ``obs="trace"`` point inside its result) and returns an
   ordered ``{Point: WorkloadResult}`` mapping.

Results are bit-identical between the serial and parallel paths: each
group runs single-threaded inside one process either way, and the
simulator is fully deterministic given the point spec.

``jobs`` resolution: explicit argument > ``$REPRO_JOBS`` >
``os.cpu_count()``.

:func:`run_tasks` is the one process pool: it fans an arbitrary
picklable worker over its items with deadline-aware dispatch, and is
also called directly by engine users whose unit of work is not a
:class:`Point` (the fuzz campaign).  A worker process that dies
(killed, out of memory, ``os._exit``) surfaces as one
``RuntimeError`` naming the items that were in flight.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.exp.cache import ResultCache
from repro.exp.spec import Point
from repro.sim.runner import (
    WorkloadResult,
    generate_and_baseline,
    run_workload,
)

#: progress callback: (done, total, point, status, seconds)
ProgressFn = Callable[[int, int, Point, str, float], None]

#: event-stream bound for observability runs (``Point.obs == "trace"``)
OBS_EVENT_LIMIT = 200_000


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count policy: argument, then $REPRO_JOBS, then all cores."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            jobs = int(env)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _group_by_baseline(points: Sequence[Point]) -> list[list[Point]]:
    """Group points sharing one generated workload + seq baseline."""
    groups: dict[tuple, list[Point]] = {}
    for point in points:
        groups.setdefault(point.baseline_key(), []).append(point)
    return list(groups.values())


def _run_group(group: list[Point]) -> list[tuple[Point, WorkloadResult, float]]:
    """Run one baseline-sharing group (in-process; also the pool task).

    The workload is generated once and the sequential reference run
    once; every system in the group reuses both (its cycles as the
    speedup baseline, its memory as the golden image when checked).
    An ``obs="trace"`` point's result carries its event payload and
    metrics snapshot in ``trace``.
    """
    first = group[0]
    config = first.resolved_config()
    start = time.perf_counter()
    generated, sequential = generate_and_baseline(
        first.workload,
        ncores=first.ncores,
        seed=first.seed,
        scale=first.scale,
        config=config,
    )
    baseline_seconds = time.perf_counter() - start
    out = []
    for i, point in enumerate(group):
        tracer = metrics = None
        if point.obs == "trace":
            from repro.obs.events import EventStream
            from repro.obs.metrics import MetricsRegistry

            tracer = EventStream(limit=OBS_EVENT_LIMIT)
            metrics = MetricsRegistry()
        start = time.perf_counter()
        result = run_workload(
            point.workload,
            point.system,
            ncores=point.ncores,
            seed=point.seed,
            scale=point.scale,
            config=config,
            sequential=sequential,
            generated=generated,
            oracle=point.check,
            golden=point.check,
            tracer=tracer,
            metrics=metrics,
        )
        seconds = time.perf_counter() - start
        if i == 0:
            seconds += baseline_seconds
        if tracer is not None:
            result.trace = tracer.to_payload()
            result.trace["metrics"] = metrics.snapshot()
        out.append((point, result, seconds))
    return out


def _ensure_child_importable() -> None:
    """Make ``repro`` importable in spawn-started worker processes.

    With the default ``fork`` start method children inherit
    ``sys.path``; under ``spawn`` they re-import from scratch, so the
    package root (e.g. a ``src/`` checkout dir) must be on
    ``$PYTHONPATH``.
    """
    package_root = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([package_root] + parts)


def _describe(item) -> str:
    """Name an in-flight item: point labels where there are points."""
    parts = item if isinstance(item, list) else [item]
    return ", ".join(
        part.label() if isinstance(part, Point) else repr(part)
        for part in parts
    )


def run_tasks(
    items: Iterable,
    worker: Callable,
    jobs: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
):
    """Fan ``worker(item)`` out across the process pool; yield
    ``(index, item, result)`` tuples as tasks complete.

    :func:`run_points` feeds its baseline groups through here, the
    fuzz campaign its ``run_case`` tasks.  ``worker`` must be picklable
    (a module-level function or a ``functools.partial`` of one), as
    must every item and result.

    ``stop``, if given, is consulted before *each* dispatch: once it
    returns True no further items are submitted, in-flight items
    finish cleanly, and their results are still yielded — so callers
    can enforce a time budget at item granularity instead of batch
    granularity.  With ``jobs=1`` (or a single item) everything runs
    in-process; the worker being deterministic makes the two paths
    yield identical results, differing only in completion order.

    A worker process that dies takes the pool down with it; that is
    raised as one ``RuntimeError`` naming every in-flight item.
    """
    items = list(items)
    njobs = min(resolve_jobs(jobs), max(len(items), 1))
    if njobs <= 1 or len(items) <= 1:
        for index, item in enumerate(items):
            if stop is not None and stop():
                return
            yield index, item, worker(item)
        return

    import multiprocessing
    from concurrent.futures import (
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool

    _ensure_child_importable()
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    with ProcessPoolExecutor(max_workers=njobs, mp_context=ctx) as pool:
        queue = iter(enumerate(items))
        in_flight: dict = {}

        def submit_one() -> bool:
            if stop is not None and stop():
                return False
            try:
                index, item = next(queue)
            except StopIteration:
                return False
            in_flight[pool.submit(worker, item)] = (index, item)
            return True

        for _ in range(njobs):
            if not submit_one():
                break
        while in_flight:
            ready, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in ready:
                try:
                    result = future.result()
                    index, item = in_flight.pop(future)
                    submit_one()
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        "a pool worker died while these were in flight: "
                        + "; ".join(
                            _describe(item)
                            for _index, item in in_flight.values()
                        )
                    ) from exc
                yield index, item, result


def run_points(
    points: Iterable[Point],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    progress: Optional[ProgressFn] = None,
) -> dict[Point, WorkloadResult]:
    """Execute *points*, returning results keyed by point in input order.

    This is the one path a point takes through the engine — cache
    probe, baseline-shared execution, cache store, progress.
    ``cache=None`` disables persistence; ``refresh=True`` ignores (and
    overwrites) existing entries.  ``progress``, if given, is invoked
    once per point with status ``"cached"`` or ``"ran"``: cache hits
    first, then fresh runs in completion order.
    """
    ordered = list(dict.fromkeys(points))
    total = len(ordered)
    results: dict[Point, WorkloadResult] = {}
    pending: list[Point] = []
    for point in ordered:
        hit = None if (cache is None or refresh) else cache.get(point)
        if hit is None:
            pending.append(point)
            continue
        results[point] = hit
        if progress:
            progress(len(results), total, point, "cached", 0.0)

    for _index, _group, batch in run_tasks(
        _group_by_baseline(pending), _run_group, jobs=jobs
    ):
        for point, result, seconds in batch:
            if cache is not None:
                cache.put(point, result)
            results[point] = result
            if progress:
                progress(len(results), total, point, "ran", seconds)
    return {point: results[point] for point in ordered}


def run_point_with_trace(point: Point, **engine_opts):
    """Run one point with tracing; returns ``(result, events, metrics)``.

    ``events`` is an :class:`repro.obs.events.EventStream` and
    ``metrics`` the registry snapshot dict from the run.  The point is
    promoted to ``obs="trace"`` (a *different* cache key from the
    untraced run), so a warm untraced cache can never short-circuit a
    trace request; a cache hit replays the events persisted in the
    result's ``trace``.  ``engine_opts`` are :func:`run_points`'s
    (``cache``, ``refresh``, ``progress``).
    """
    from dataclasses import replace

    from repro.obs.events import EventStream

    (result,) = run_points([replace(point, obs="trace")], **engine_opts).values()
    return (
        result,
        EventStream.from_payload(result.trace),
        dict(result.trace.get("metrics", ())),
    )


def stderr_progress(done: int, total: int, point: Point, status: str,
                    seconds: float) -> None:
    """Default streaming progress line for CLI commands."""
    timing = "" if status == "cached" else f" ({seconds:.1f}s)"
    print(
        f"[{done}/{total}] {point.label()}: {status}{timing}",
        file=sys.stderr,
        flush=True,
    )
