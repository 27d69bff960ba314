"""A fuzz run that ends holding an STM ownership word diverges.

The differential compares memory below the STM metadata region only,
so a leaked fallback token or orec owner word is invisible to the
memory diffs; ``run_case`` checks the ownership words on their own.
"""

import pytest

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case
from repro.sim.machine import Machine
from repro.stm.metadata import TOKEN_ADDR, orec_addr, owner_addr


@pytest.mark.parametrize(
    "addr, name",
    [
        (TOKEN_ADDR, "stm-fallback-token"),
        (owner_addr(orec_addr(3)), "stm-orec-owner"),
    ],
    ids=["token", "orec-owner"],
)
def test_leaked_ownership_word_is_a_golden_divergence(
    monkeypatch, addr, name
):
    run = Machine.run

    def leaky_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        result.memory.write(addr, 2, 8)  # core 1 still "holds" it
        return result

    monkeypatch.setattr(Machine, "run", leaky_run)
    case = generate_case(0, FUZZ_PROFILES["fuzz-mixed"], nthreads=2)
    outcome = run_case(case, backends=("progressive",))
    assert [(d.kind, d.backend) for d in outcome.divergences] == [
        ("golden", "progressive")
    ]
    assert name in outcome.divergences[0].detail
