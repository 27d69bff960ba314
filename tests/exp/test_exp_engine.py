"""The executor: determinism, baseline sharing, caching, parallelism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp.cache import ResultCache
from repro.exp.engine import (
    resolve_jobs,
    run_points,
    run_tasks,
)
from repro.exp.spec import Point
from repro.sim.runner import run_workload

#: 3 workloads x 3 systems at small scale (the determinism grid the
#: engine must reproduce bit-for-bit regardless of worker count).
WORKLOADS = ("python_opt", "genome-sz", "kmeans")
GRID = [
    Point(workload, system, ncores=2, seed=1, scale=0.05)
    for workload in WORKLOADS
    for system in ("eager", "lazy-vb", "retcon")
]


def serialized(results) -> list[str]:
    return [
        json.dumps(r.to_dict(), sort_keys=True) for r in results.values()
    ]


@pytest.fixture(scope="module")
def serial_results():
    return run_points(GRID, jobs=1)


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, serial_results):
        parallel = run_points(GRID, jobs=4)
        assert list(parallel) == list(serial_results)
        assert serialized(parallel) == serialized(serial_results)

    def test_engine_matches_direct_runner(self, serial_results):
        """Sharing generated workloads/baselines across systems must
        not change any result vs. a standalone run_workload call."""
        point = Point("genome-sz", "retcon", ncores=2, scale=0.05)
        direct = run_workload(
            point.workload, point.system, ncores=point.ncores,
            seed=point.seed, scale=point.scale,
        )
        assert (
            serial_results[point].to_dict() == direct.to_dict()
        )

    def test_order_follows_input_not_completion(self):
        points = list(reversed(GRID))[:4]
        results = run_points(points, jobs=2)
        assert list(results) == points


class TestBaselineSharing:
    def test_one_baseline_per_workload(self, serial_results):
        for workload in WORKLOADS:
            seqs = {
                serial_results[point].seq_cycles
                for point in GRID
                if point.workload == workload
            }
            assert len(seqs) == 1

    def test_a_checked_group_runs_the_sequential_reference_once(
        self, monkeypatch
    ):
        """The speedup baseline and the golden image are one run: a
        checked group of S systems used to run it 1 + S times."""
        from repro.sim import runner

        sequential_runs = []
        real = runner.run_sequential

        def spy(generated, config=None, label=None):
            result = real(generated, config, label)
            sequential_runs.append(result)
            return result

        monkeypatch.setattr(runner, "run_sequential", spy)
        points = [
            Point("python_opt", system, ncores=2, scale=0.05, check=True)
            for system in ("eager", "retcon", "stm")
        ]
        results = run_points(points, jobs=1)
        assert len(sequential_runs) == 1
        for point in points:
            result = results[point]
            assert result.seq_cycles == sequential_runs[0].cycles
            assert result.golden["ok"] and not result.golden["golden_failures"]
            # ...and the diff is the one a private golden run gives
            direct = run_workload(
                point.workload, point.system, ncores=2, scale=0.05,
                golden=True,
            )
            assert result.golden == direct.golden

    def test_duplicates_deduped(self):
        point = Point("kmeans", "eager", ncores=2, scale=0.05)
        ran = []
        results = run_points(
            [point, point, point],
            jobs=1,
            progress=lambda *a: ran.append(a[3]),
        )
        assert len(results) == 1
        assert ran == ["ran"]


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path, serial_results):
        cache = ResultCache(tmp_path)
        statuses = []
        first = run_points(
            GRID, jobs=1, cache=cache,
            progress=lambda d, t, p, status, s: statuses.append(status),
        )
        assert statuses == ["ran"] * len(GRID)
        statuses.clear()
        second = run_points(
            GRID, jobs=1, cache=cache,
            progress=lambda d, t, p, status, s: statuses.append(status),
        )
        assert statuses == ["cached"] * len(GRID)
        assert serialized(first) == serialized(second)
        assert serialized(second) == serialized(serial_results)

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_points(GRID, jobs=4, cache=cache)
        assert len(cache) == len(GRID)
        statuses = []
        run_points(
            GRID, jobs=4, cache=cache,
            progress=lambda d, t, p, status, s: statuses.append(status),
        )
        assert statuses == ["cached"] * len(GRID)

    def test_refresh_ignores_but_rewrites_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = Point("kmeans", "eager", ncores=2, scale=0.05)
        run_points([point], jobs=1, cache=cache)
        statuses = []
        run_points(
            [point], jobs=1, cache=cache, refresh=True,
            progress=lambda d, t, p, status, s: statuses.append(status),
        )
        assert statuses == ["ran"]
        assert len(cache) == 1

    def test_progress_counts_reach_total(self, tmp_path):
        seen = []
        run_points(
            GRID, jobs=1,
            progress=lambda d, t, p, status, s: seen.append((d, t)),
        )
        assert seen[-1] == (len(GRID), len(GRID))
        assert [d for d, _ in seen] == list(range(1, len(GRID) + 1))


class TestRunMatrix:
    def test_matrix_keys_and_sharing(self):
        """The (workload, system) grid, as the registry spells it: the
        `compare` record's points through one shared pass."""
        from repro.analysis.figures import COMPARE, collect

        base = Point("kmeans", "", ncores=2, scale=0.05)
        (matrix,) = collect({"compare": COMPARE}, base).values()
        assert set(matrix) == {"eager", "lazy-vb", "retcon"}
        assert {r.workload for r in matrix.values()} == {"kmeans"}
        assert len({r.seq_cycles for r in matrix.values()}) == 1


def _square(value: int) -> int:
    """Module-level worker: run_tasks pool tasks must be picklable."""
    return value * value


class TestRunTasks:
    def test_serial_yields_all_in_input_order(self):
        out = list(run_tasks(range(5), _square, jobs=1))
        assert out == [(i, i, i * i) for i in range(5)]

    def test_parallel_matches_serial(self):
        serial = sorted(run_tasks(range(8), _square, jobs=1))
        parallel = sorted(run_tasks(range(8), _square, jobs=4))
        assert parallel == serial

    def test_stop_halts_further_dispatch(self):
        """Once stop() trips, in-flight work finishes and nothing new
        starts — the deep-fuzz per-seed deadline contract."""
        results = []
        for _index, _item, result in run_tasks(
            range(100), _square, jobs=1, stop=lambda: len(results) >= 3
        ):
            results.append(result)
        assert results == [0, 1, 4]

    def test_stop_true_runs_nothing(self):
        assert list(run_tasks(range(5), _square, jobs=1,
                              stop=lambda: True)) == []

    def test_empty_items(self):
        assert list(run_tasks([], _square, jobs=4)) == []


class TestDeadWorker:
    def test_a_killed_worker_fails_the_sweep_naming_its_points(self):
        """A worker that dies mid-group used to hang run_points forever
        (multiprocessing.Pool respawns the worker and loses the task)."""
        script = (
            "import os\n"
            "from repro.exp import engine\n"
            "from repro.exp.spec import Point\n"
            "def die(group):\n"
            "    os._exit(3)\n"
            "engine._run_group = die\n"
            "engine.run_points(\n"
            "    [Point('kmeans', 'eager', 2, seed, 0.05)\n"
            "     for seed in (1, 2)], jobs=2)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": "src"},
        )
        assert done.returncode != 0
        assert "RuntimeError" in done.stderr
        assert Point("kmeans", "eager", 2, 1, 0.05).label() in done.stderr


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None) == 7

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(None) >= 1


def test_importing_the_engine_leaves_multiprocessing_unloaded():
    """Only a process pool needs ``multiprocessing``; a process that
    runs points in-process never pays for importing it."""
    import repro

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.exp.engine, repro.sim.machine\n"
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert done.stdout.strip() == "False"
