"""The L1 -> permissions-only spill and overflow path, pinned.

The other golden fixtures run the paper's cache sizes, where a
transaction never fills an L1 set with speculative lines, so none of
them reaches the spill path.  Here a 512-byte 2-way L1 and a 16-entry
2-way permissions-only cache make ``vacation_opt-sz`` and
``intruder_opt-sz`` spill and overflow on every row but ``datm`` (its
cooldown-0 forwarding is kept out of every small-point suite).  Each
point must reproduce its :class:`~repro.sim.runner.WorkloadResult` and
its spill/overflow/eviction counts exactly.

Tier-1 (about a second); CI's oracle-smoke job runs it beside the
other stats-identity files.
"""

import json
from pathlib import Path

import pytest

from repro.htm.backends import BACKENDS
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import MachineConfig
from repro.sim.runner import run_workload

FIXTURE = (
    Path(__file__).resolve().parents[1] / "golden" / "stats_tiny_cache_spills.json"
)

TINY = MachineConfig(
    l1_bytes=512, l1_assoc=2, perm_cache_bytes=16, perm_cache_assoc=2
)
WORKLOADS = ("vacation_opt-sz", "intruder_opt-sz")
ROWS = tuple(name for name in BACKENDS if name != "datm")
CACHE_KEYS = ("cache.overflows", "cache.perm_spills", "cache.l1_evictions")


def measure(workload: str, system: str) -> dict:
    """One point's result plus the fabric's spill-path counters."""
    registry = MetricsRegistry()
    result = run_workload(
        workload, system, ncores=8, seed=1, scale=0.05, config=TINY,
        metrics=registry,
    )
    return {
        "result": result.to_dict(),
        "cache": {key: registry.get(key).snapshot() for key in CACHE_KEYS},
    }


@pytest.mark.parametrize("system", ROWS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_spill_path_matches_fixture(workload, system):
    want = json.loads(FIXTURE.read_text())[f"{workload}/{system}"]
    got = json.loads(json.dumps(measure(workload, system)))
    assert got == want, f"{workload}/{system}: drifted from {FIXTURE.name}"


def test_fixture_reaches_the_overflow_path():
    """Guard against a config change that makes the pin vacuous."""
    points = json.loads(FIXTURE.read_text()).values()
    overflowing = [p for p in points if p["cache"]["cache.overflows"]]
    assert len(overflowing) >= len(ROWS)
