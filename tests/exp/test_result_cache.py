"""The content-addressed result cache: hits, misses, invalidation."""

import json
from dataclasses import replace

import pytest

import repro
from repro.exp.cache import SCHEMA, ResultCache
from repro.exp.engine import run_points
from repro.exp.spec import Point
from repro.sim.config import MachineConfig
from repro.sim.runner import run_workload

POINT = Point("kmeans", "eager", ncores=2, seed=1, scale=0.1)


@pytest.fixture(scope="module")
def result():
    return run_workload(
        POINT.workload, POINT.system, ncores=POINT.ncores,
        seed=POINT.seed, scale=POINT.scale,
    )


class TestRoundTrip:
    def test_hit_returns_equal_result(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get(POINT) is None
        cache.put(POINT, result)
        loaded = cache.get(POINT)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        # Derived values survive the round trip.
        assert loaded.speedup == result.speedup
        assert loaded.invariants_ok == result.invariants_ok
        assert loaded.table3 == result.table3
        assert cache.hits == 1 and cache.misses == 1

    def test_len_and_clear(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        cache.put(replace(POINT, seed=2), result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(POINT) is None

    def test_len_skips_a_schema_1_trace_file_and_clear_removes_it(
        self, tmp_path, result
    ):
        """A schema-1 cache kept each trace beside its entry as
        ``<key>.trace.json``; a migrated root still holds them.  Such
        an orphan is not an entry, but ``clear()`` removes it."""
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        path.with_name(f"{path.stem}.trace.json").write_text("{}")
        assert len(cache) == 1
        assert cache.clear() == 2
        assert not list(tmp_path.rglob("*.json"))


class TestInvalidation:
    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "genome"},
            {"system": "retcon"},
            {"ncores": 4},
            {"seed": 2},
            {"scale": 0.2},
            {"config": MachineConfig(dram_cycles=50)},
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_any_key_field_change_misses(self, tmp_path, result, change):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        assert cache.get(replace(POINT, **change)) is None

    def test_version_change_misses(self, tmp_path, result, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(repro, "__version__", "1.0.0")
        cache.put(POINT, result)
        assert cache.get(POINT) is not None
        monkeypatch.setattr(repro, "__version__", "2.0.0")
        assert cache.get(POINT) is None

    def test_corrupt_entry_is_counted_and_reported(
        self, tmp_path, result, capsys
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        path.write_text("{not json")
        assert cache.get(POINT) is None
        assert (cache.corrupt, cache.misses, cache.hits) == (1, 0, 0)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"corrupt cache entry {path}" in err[0]

    def test_truncated_entry_is_rerun_and_overwritten(
        self, tmp_path, result, capsys
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        rerun = run_points([POINT], jobs=1, cache=cache)[POINT]
        assert rerun.to_dict() == result.to_dict()
        assert (cache.corrupt, cache.misses) == (1, 0)
        assert str(path) in capsys.readouterr().err
        # The rerun overwrote the torn entry: the next read is a hit.
        assert cache.get(POINT).to_dict() == result.to_dict()
        assert cache.corrupt == 1 and cache.hits == 1

    def test_schema_bump_is_a_miss(self, tmp_path, result, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        monkeypatch.setattr("repro.exp.cache.SCHEMA", SCHEMA + 1)
        assert cache.get(POINT) is None

    def test_old_schema_entry_is_resimulated_once(
        self, tmp_path, result, capsys
    ):
        """An entry of an older schema is reported once, re-simulated
        and overwritten; the next pass is a plain hit."""
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "schema": SCHEMA - 1}))
        rerun = run_points([POINT], jobs=1, cache=cache)[POINT]
        assert rerun.to_dict() == result.to_dict()
        assert "corrupt cache entry" in capsys.readouterr().err
        run_points([POINT], jobs=1, cache=cache)
        assert (cache.corrupt, cache.hits) == (1, 1)
        assert json.loads(path.read_text())["schema"] == SCHEMA


class TestDefaultRoot:
    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        cache = ResultCache()
        assert cache.root == tmp_path / "alt"
