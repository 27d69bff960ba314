"""A fuzz case's programs are assembled once and every backend runs
those same objects — with every check still in place."""

from repro.fuzz import diff, gen
from repro.fuzz.diff import run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case

FIVE = ("eager", "lazy-vb", "retcon", "stm", "hybrid-retcon")


def test_run_case_assembles_each_transaction_once(monkeypatch):
    calls = []
    original = gen.assemble_txn

    def counting(genes, thread, layout):
        calls.append(thread)
        return original(genes, thread, layout)

    monkeypatch.setattr(gen, "assemble_txn", counting)
    assert not hasattr(diff, "assemble_txn")
    case = generate_case(3, FUZZ_PROFILES["fuzz-mixed"])
    outcome = run_case(case, backends=FIVE)
    assert outcome.ok, outcome.summary()
    assert len(calls) == case.txn_count()


def test_the_shared_replay_still_catches_a_corrupted_commit():
    case = generate_case(7, FUZZ_PROFILES["fuzz-rmw"])
    outcome = run_case(
        case, backends=("eager", "retcon"), fault="plan-store-skew"
    )
    blamed = {(d.backend, d.kind) for d in outcome.divergences}
    assert ("retcon", "oracle") in blamed
    assert "eager" not in {backend for backend, _kind in blamed}
