"""Declarative specs: grid expansion and stable point hashing."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.exp.spec import Point, point_key, smoke_spec
from repro.sim.config import MachineConfig


class TestExperimentSpec:
    def test_baseline_key_shared_across_systems_only(self):
        base = Point("kmeans", "eager", ncores=4, seed=2, scale=0.5)
        assert base.baseline_key() == replace(
            base, system="retcon"
        ).baseline_key()
        for change in (
            {"workload": "genome"},
            {"ncores": 8},
            {"seed": 3},
            {"scale": 0.25},
            {"config": MachineConfig(dram_cycles=50)},
        ):
            assert base.baseline_key() != replace(
                base, **change
            ).baseline_key(), change

    def test_smoke_spec_is_small(self):
        points = smoke_spec()
        assert 0 < len(points) <= 12
        assert len(set(points)) == len(points)
        assert all(p.scale <= 0.2 for p in points)


class TestPointKey:
    def test_stable_across_processes(self):
        # Keys must derive only from content (no id()/hash seeds).
        point = Point("kmeans", "eager", ncores=2)
        assert point_key(point, version="1.0.0") == point_key(
            Point("kmeans", "eager", ncores=2), version="1.0.0"
        )

    def test_every_field_is_key_material(self):
        base = Point("kmeans", "eager", ncores=4, seed=1, scale=0.5)
        variants = [
            replace(base, workload="genome"),
            replace(base, system="retcon"),
            replace(base, ncores=8),
            replace(base, seed=2),
            replace(base, scale=0.25),
            replace(base, config=MachineConfig(hop_cycles=10)),
        ]
        keys = {point_key(v, version="1.0.0") for v in variants}
        assert point_key(base, version="1.0.0") not in keys
        assert len(keys) == len(variants)

    def test_version_is_key_material(self):
        point = Point("kmeans", "eager")
        assert point_key(point, version="1.0.0") != point_key(
            point, version="1.0.1"
        )

    def test_default_config_equals_explicit_default(self):
        # config=None means "defaults at this core count": both spell
        # the same simulation, so they must share one cache entry.
        implicit = Point("kmeans", "eager", ncores=4)
        explicit = Point(
            "kmeans", "eager", ncores=4,
            config=MachineConfig().with_cores(4),
        )
        assert point_key(implicit) == point_key(explicit)


def _with(**overrides) -> MachineConfig:
    """The one spelling of a machine override: Point(config=...)."""
    return replace(MachineConfig(), **overrides)


class TestRetryBudget:
    """The HyTM sweep knob must be cache-key material."""

    def test_budget_changes_the_point_key(self):
        base = Point(workload="kmeans", system="hybrid-retcon")
        swept = replace(base, config=_with(retry_budget=2))
        assert point_key(base) != point_key(swept)
        assert point_key(swept) != point_key(
            replace(base, config=_with(retry_budget=3))
        )

    def test_none_budget_matches_config_default(self):
        default = MachineConfig().retry_budget
        implicit = Point(workload="kmeans", system="hybrid-retcon")
        explicit = replace(implicit, config=_with(retry_budget=default))
        assert point_key(implicit) == point_key(explicit)

    def test_budget_folds_into_resolved_config_and_label(self):
        point = Point(
            workload="kmeans", system="hybrid-retcon",
            config=_with(retry_budget=0),
        )
        assert point.resolved_config().retry_budget == 0
        assert "rb=0" in point.label()


class TestLabel:
    def test_label_names_exactly_the_overridden_fields(self):
        plain = Point("kmeans", "eager", ncores=4)
        assert plain.label() == "kmeans/eager ncores=4 seed=1 scale=1.0"
        # An explicit default config is still a plain point.
        assert replace(plain, config=MachineConfig()).label() == plain.label()
        swept = replace(
            plain,
            config=_with(retry_budget=2, read_set_entries=4,
                         ivb_entries=None, dram_cycles=50),
        )
        extras = swept.label().removeprefix(plain.label()).split()
        assert sorted(extras) == sorted(
            ["rb=2", "rs=4", "ivb=unlimited", "dram_cycles=50"]
        )

    def test_label_does_not_depend_on_the_seed(self):
        # Progress lines of one sweep must read alike across seeds.
        a = Point("kmeans", "eager", seed=1, config=_with(hop_cycles=10))
        b = replace(a, seed=2)
        assert a.label().replace("seed=1", "seed=2") == b.label()


class TestCacheKeyStability:
    """Literal digests of repro 1.7.3 keys, re-recorded with the
    version: checked points on the eager, lazy and hybrid-eager rows
    now report replayed commits that 1.7.2 did not, so its cache
    entries must miss."""

    PINNED = {
        "c2e5dfdc27c066fb2a5868ebfb62de13f5da3e5d4c86da721850a75fcdf2f11e":
            Point("python_opt", "retcon"),
        "96ba6d2000cb931daa7c269c03280c64f5e81e97e23c35c1208a13611e17135e":
            Point("python_opt", "retcon", check=True),
        "a2a48238987f49da57362ab22ceea5c5b8a89f07ab7f5f3804238cd1ad39dcfa":
            Point("python_opt", "retcon", obs="trace"),
        # was Point(..., retry_budget=2)
        "c97fe0d430f62239e84aac19d80362dd00922dbaf9df563baa1c63c678070c9d":
            Point("kmeans", "hybrid-retcon", ncores=4, scale=0.1,
                  config=_with(retry_budget=2)),
        # was Point(..., read_set_entries=4, write_set_entries=4)
        "0e0ebb76be416620c6a2366255c6d324cc6f3498691774ea3143f469999a297b":
            Point("genome-sz", "eager", ncores=4, scale=0.1,
                  config=_with(read_set_entries=4, write_set_entries=4)),
    }

    def test_point_keys_match_the_recorded_digests(self):
        for digest, point in self.PINNED.items():
            assert point_key(point, version="1.7.3") == digest, point

    def test_the_keyed_version_is_the_packaged_version(self):
        # pyproject.toml reads the version from repro.__version__, the
        # one the cache and corpus keys hash, instead of restating it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert config["project"]["dynamic"] == ["version"]
        assert "version" not in config["project"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }


class TestTrafficOverrides:
    """The service-traffic knobs (skew, burst) must be cache-key
    material: two points differing only in traffic shape run different
    workload bytes, so they can never share a cached result or a
    sequential baseline."""

    def test_skew_changes_the_point_key(self):
        base = Point(workload="service-limiter", system="retcon")
        swept = Point(
            workload="service-limiter", system="retcon", skew=1.6
        )
        assert point_key(base) != point_key(swept)
        assert point_key(swept) != point_key(
            Point(workload="service-limiter", system="retcon", skew=2.0)
        )

    def test_burst_changes_the_point_key(self):
        base = Point(workload="service-session", system="eager")
        swept = Point(
            workload="service-session", system="eager", burst="bursty"
        )
        assert point_key(base) != point_key(swept)

    def test_traffic_enters_the_baseline_key(self):
        """The sequential baseline is regenerated per traffic shape —
        a skewed stream has different work than the default one."""
        base = Point(workload="service-feed", system="retcon")
        swept = Point(
            workload="service-feed", system="retcon",
            skew=1.6, burst="steady",
        )
        assert base.baseline_key() != swept.baseline_key()
        # ...but the baseline is shared across systems at equal traffic
        other = Point(
            workload="service-feed", system="eager",
            skew=1.6, burst="steady",
        )
        assert swept.baseline_key() == other.baseline_key()

    def test_traffic_shows_in_the_label(self):
        point = Point(
            workload="service-checkout", system="retcon",
            skew=1.6, burst="bursty",
        )
        assert "skew=1.6" in point.label()
        assert "burst=bursty" in point.label()
        plain = Point(workload="service-checkout", system="retcon")
        assert "skew=" not in plain.label()
        assert "burst=" not in plain.label()
