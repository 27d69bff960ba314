"""A fuzz case's programs are assembled once and the serial replay
re-runs those same objects — with every check still in place."""

from repro.fuzz import diff, gen
from repro.fuzz.diff import run_case
from repro.fuzz.gen import FUZZ_PROFILES, generate_case
from repro.sim.script import Txn

FIVE = ("eager", "lazy-vb", "retcon", "stm", "hybrid-retcon")


def _record_machines(monkeypatch):
    """Every Machine run_case builds, in construction order."""
    built = []

    class Recording(diff.Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(diff, "Machine", Recording)
    return built


def _programs(machine):
    return [
        item.program
        for core in machine.cores
        for item in core.items
        if isinstance(item, Txn)
    ]


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


def test_replay_machines_run_the_cases_own_programs(monkeypatch):
    built = _record_machines(monkeypatch)
    case = generate_case(3, FUZZ_PROFILES["fuzz-branchy"])
    outcome = run_case(case, backends=FIVE)
    assert outcome.ok, outcome.summary()

    replays = [m for m in built if m.label.startswith("serial replay")]
    backends = [m for m in built if m.label.startswith("fuzz ")]
    # one 1-core eager replay per backend, each right after it
    assert [m.system.name for m in backends] == list(FIVE)
    assert len(replays) == len(FIVE)
    assert all(
        len(m.cores) == 1 and m.system.name == "eager" for m in replays
    )

    own = {id(program) for program in _programs(backends[0])}
    assert len(own) == case.txn_count()
    for replay in replays:
        replayed = _programs(replay)
        assert len(replayed) == case.txn_count()
        assert {id(program) for program in replayed} == own
    # no two backends committed in the same order here, and each
    # replay follows its own backend's
    orders = [tuple(map(id, _programs(m))) for m in replays]
    assert len(set(orders)) > 1


def test_the_shared_replay_still_catches_a_corrupted_commit():
    case = generate_case(7, FUZZ_PROFILES["fuzz-rmw"])
    outcome = run_case(
        case, backends=("eager", "retcon"), fault="plan-store-skew"
    )
    blamed = {(d.backend, d.kind) for d in outcome.divergences}
    assert ("retcon", "serialization") in blamed
    assert "eager" not in {backend for backend, _kind in blamed}
