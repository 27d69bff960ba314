"""Trace artifacts in the result cache and the trace × cache contract.

Regression suite for the bug where a trace-requesting run could be
satisfied by a warm untraced cache entry and come back with an empty
trace: traced points carry ``obs="trace"`` (a different cache key),
their event payload is persisted as an artifact next to the result,
and a result entry without its artifact is treated as a miss.
"""

from dataclasses import replace

import pytest

from repro.exp.cache import ResultCache
from repro.exp.engine import run_point_with_trace, run_points
from repro.exp.spec import Point, point_key

POINT = Point("kmeans", "eager", ncores=2, seed=1, scale=0.1)


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"events": [{"kind": "begin", "core": 0}]}
        assert cache.get_artifact(POINT, "trace") is None
        path = cache.put_artifact(POINT, "trace", payload)
        assert path.name.endswith(".trace.json")
        assert cache.get_artifact(POINT, "trace") == payload

    def test_lives_beside_result_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        artifact = cache.artifact_path_for(POINT, "trace")
        result = cache.path_for(POINT)
        assert artifact.parent == result.parent
        assert artifact.stem.startswith(result.stem)

    def test_corrupt_artifact_is_a_miss(self, tmp_path, capsys):
        """The engine re-simulates the point; the cache counts the
        corrupt file and names it on stderr."""
        cache = ResultCache(tmp_path)
        path = cache.put_artifact(POINT, "trace", {"a": 1})
        path.write_text("{not json")
        assert cache.get_artifact(POINT, "trace") is None
        assert cache.corrupt == 1
        assert f"corrupt cache entry {path}" in capsys.readouterr().err


class TestObsCacheKey:
    def test_obs_changes_the_key(self):
        traced = replace(POINT, obs="trace")
        assert point_key(POINT) != point_key(traced)

    def test_obs_in_label(self):
        assert "+trace" in replace(POINT, obs="trace").label()


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
        return the full recorded trace."""
        cache = ResultCache(tmp_path)
        _r1, first, _m1 = run_point_with_trace(POINT, cache=cache)
        hits_before = cache.hits
        _r2, second, _m2 = run_point_with_trace(POINT, cache=cache)
        assert cache.hits > hits_before
        assert len(second) == len(first) > 0
        assert [e.to_dict() for e in second] == [
            e.to_dict() for e in first
        ]

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

    def test_missing_artifact_forces_resimulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        _r1, first, _m1 = run_point_with_trace(POINT, cache=cache)
        traced = replace(POINT, obs="trace")
        cache.artifact_path_for(traced, "trace").unlink()
        _r2, second, _m2 = run_point_with_trace(POINT, cache=cache)
        assert len(second) == len(first) > 0

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
    def test_obs_point_without_artifact_reruns(self, tmp_path):
        cache = ResultCache(tmp_path)
        traced = replace(POINT, obs="trace")
        statuses = []

        def progress(_done, _total, _point, status, _secs):
            statuses.append(status)

        results = run_points(
            [traced], jobs=1, cache=cache, progress=progress
        )
        assert statuses == ["ran"]
        assert cache.get_artifact(traced, "trace") is not None

        # With result + artifact present: a clean cache hit.
        statuses.clear()
        run_points([traced], jobs=1, cache=cache, progress=progress)
        assert statuses == ["cached"]

        # Artifact deleted: the result alone must not count as a hit.
        cache.artifact_path_for(traced, "trace").unlink()
        statuses.clear()
        run_points([traced], jobs=1, cache=cache, progress=progress)
        assert statuses == ["ran"]
        assert cache.get_artifact(traced, "trace") is not None
        assert results[traced].commits > 0
