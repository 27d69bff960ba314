"""Traced results in the result cache and the trace × cache contract.

Regression suite for the bug where a trace-requesting run could be
satisfied by a warm untraced cache entry and come back with an empty
trace: traced points carry ``obs="trace"`` (a different cache key),
and their event payload rides inside the result (``WorkloadResult
.trace``), so a traced point is one cache entry, written once.
"""

from dataclasses import replace

from repro.exp.cache import ResultCache
from repro.exp.engine import run_point_with_trace, run_points
from repro.exp.spec import Point, point_key

POINT = Point("kmeans", "eager", ncores=2, seed=1, scale=0.1)
TRACED = replace(POINT, obs="trace")


def _statuses():
    """A progress callback and the statuses it has seen."""
    seen = []
    return seen, lambda _done, _total, _point, status, _secs: seen.append(
        status
    )


class TestTracedEntry:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_points([TRACED], jobs=1)[TRACED]
        assert result.trace["events"] and result.trace["metrics"]
        cache.put(TRACED, result)
        assert cache.get(TRACED).trace == result.trace

    def test_is_one_file(self, tmp_path):
        """A traced point is one file under the cache root, and counts
        once."""
        cache = ResultCache(tmp_path)
        run_points([TRACED], jobs=1, cache=cache)
        (entry,) = (path for path in tmp_path.rglob("*") if path.is_file())
        assert entry == cache.path_for(TRACED)
        assert len(cache) == 1

    def test_corrupt_entry_is_resimulated(self, tmp_path, capsys):
        """The cache counts the corrupt entry and names it on stderr;
        the engine re-simulates the point, trace included."""
        cache = ResultCache(tmp_path)
        first = run_points([TRACED], jobs=1, cache=cache)[TRACED]
        path = cache.path_for(TRACED)
        path.write_text("{not json")
        seen, progress = _statuses()
        again = run_points([TRACED], jobs=1, cache=cache, progress=progress)
        assert seen == ["ran"] and cache.corrupt == 1
        assert f"corrupt cache entry {path}" in capsys.readouterr().err
        assert again[TRACED].trace == first.trace
        assert cache.get(TRACED).trace == first.trace


class TestObsCacheKey:
    def test_obs_changes_the_key(self):
        assert point_key(POINT) != point_key(TRACED)

    def test_obs_in_label(self):
        assert "+trace" in TRACED.label()

    def test_untraced_results_carry_no_trace(self):
        result = run_points([POINT], jobs=1)[POINT]
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestRunPointWithTrace:
    def test_trace_is_populated(self, tmp_path):
        cache = ResultCache(tmp_path)
        result, events, metrics = run_point_with_trace(
            POINT, cache=cache
        )
        assert len(events) > 0
        assert events.of_kind("commit")
        assert result.commits > 0
        assert metrics["txn.commits"] == result.commits

    def test_warm_cache_replays_identical_trace(self, tmp_path):
        """Regression: the second run must hit the cache AND still
        return the full recorded trace and metrics."""
        cache = ResultCache(tmp_path)
        _r1, first, metrics1 = run_point_with_trace(POINT, cache=cache)
        hits_before = cache.hits
        _r2, second, metrics2 = run_point_with_trace(POINT, cache=cache)
        assert cache.hits > hits_before
        assert len(second) == len(first) > 0
        assert [e.to_dict() for e in second] == [
            e.to_dict() for e in first
        ]
        assert metrics2 == metrics1

    def test_warm_untraced_cache_cannot_satisfy_trace_request(
        self, tmp_path
    ):
        """Regression: an untraced result for the same parameters must
        not short-circuit a traced run."""
        cache = ResultCache(tmp_path)
        run_points([POINT], jobs=1, cache=cache)  # untraced entry
        _result, events, _metrics = run_point_with_trace(
            POINT, cache=cache
        )
        assert len(events) > 0

    def test_refresh_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_point_with_trace(POINT, cache=cache)
        hits_before = cache.hits
        _r, events, _m = run_point_with_trace(
            POINT, cache=cache, refresh=True
        )
        assert cache.hits == hits_before
        assert len(events) > 0

    def test_no_cache(self):
        result, events, metrics = run_point_with_trace(POINT)
        assert result.commits > 0
        assert len(events) > 0


class TestRunPointsObsGate:
    def test_warm_traced_point_is_a_cached_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        seen, progress = _statuses()
        cold = run_points([TRACED], jobs=1, cache=cache, progress=progress)
        warm = run_points([TRACED], jobs=1, cache=cache, progress=progress)
        assert seen == ["ran", "cached"]
        assert warm[TRACED].trace == cold[TRACED].trace
        assert warm[TRACED].to_dict() == cold[TRACED].to_dict()
        assert cold[TRACED].commits > 0
