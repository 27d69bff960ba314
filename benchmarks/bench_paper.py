"""The paper's claims, record by record.

One test per claim-bearing record of
:data:`repro.analysis.figures.FIGURES` — Tables 1-3, Figures 1-4, 9
and 10, the §2/§4.4/§5.3/§5.4/§7 ablations and the core-count scaling
curve.  The claims are fields of the records (the same ones
EXPERIMENTS.md prints); this file only runs them: every record's
points go through one shared engine pass, never cached, and each test
prints its record and fails naming every claim that does not hold.

Knobs (environment variables): ``REPRO_CORES`` (simulated cores,
default 32 as in the paper), ``REPRO_SCALE`` (per-thread work
multiplier, default 0.5 so the suite finishes in well under a minute;
1.0 matches EXPERIMENTS.md), ``REPRO_SEED`` (default 1) and
``REPRO_JOBS`` (engine worker processes, default 1).
"""

import os

import pytest

from repro.analysis.figures import FIGURES, cell_text, collect
from repro.exp import Point

RECORDS = {name: record for name, record in FIGURES.items() if record.claims}
NCORES = int(os.environ.get("REPRO_CORES", 32))


@pytest.fixture(scope="session")
def paper_data() -> dict:
    base = Point(
        "", "", NCORES,
        seed=int(os.environ.get("REPRO_SEED", 1)),
        scale=float(os.environ.get("REPRO_SCALE", 0.5)),
    )
    return collect(RECORDS, base, jobs=int(os.environ.get("REPRO_JOBS", 1)))


@pytest.mark.parametrize("name", RECORDS)
def test_paper_claims(name, paper_data):
    record, data = RECORDS[name], paper_data[name]
    banner = "=" * len(record.title)
    # shown with pytest -s, or in the captured output of a failure
    print(f"\n{banner}\n{record.title}\n{banner}\n{record.render(data, NCORES)}\n")
    failed = []
    for claim in record.claims:
        holds, cells = claim.judge(data, NCORES)
        if not holds:
            failed.append(
                f"{claim.description}: paper {claim.paper!r}, "
                f"measured {cell_text(cells)!r}"
            )
    assert not failed, "\n".join(failed)
