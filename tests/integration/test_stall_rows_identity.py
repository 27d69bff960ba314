"""The stall and deadlock rows must stay bit-identical too.

``test_stats_identity.py`` pins only ``retcon`` at 4 cores, where the
contention path is cold.  These fixtures pin the rows whose time goes
to stall retries and wait-cycle breaks: ``eager`` (the timestamp
policy's stall-heavy baseline), ``eager-stall`` (requester-stalls,
where every abort is the deadlock breaker) and ``lazy-vb``, on
``python_opt`` at 16 cores.  The event-vs-lockstep identity suite
cannot catch a drift here, because both schedulers run the same TM
system and move together.

Tier-1 (about a second), and CI's oracle-smoke job runs it beside
``test_stats_identity.py``.
"""

import json
from pathlib import Path

import pytest

from repro.sim.runner import run_workload

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

ROWS = ("eager", "eager-stall", "lazy-vb")


def fixture_path(system: str) -> Path:
    return GOLDEN / f"stats_python_opt_{system.replace('-', '_')}_16c_seed1.json"


@pytest.mark.parametrize("system", ROWS)
def test_stall_row_matches_fixture(system):
    result = run_workload(
        "python_opt", system, ncores=16, seed=1, scale=0.05, golden=True
    )
    got = json.dumps(result.to_dict(), sort_keys=True)
    want = json.dumps(
        json.loads(fixture_path(system).read_text()), sort_keys=True
    )
    assert got == want, (
        f"python_opt/{system} 16 cores seed 1: stats drifted from "
        f"{fixture_path(system)}"
    )
