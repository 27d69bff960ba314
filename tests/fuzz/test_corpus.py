"""Corpus persistence: the append-only verdict log, resume, keys."""

import json

import pytest

import repro.fuzz.corpus as corpus_mod
from repro.fuzz.corpus import CampaignError, Corpus
from repro.fuzz.diff import Divergence
from repro.fuzz.gen import FUZZ_PROFILES, generate_case
from repro.sim.config import MachineConfig

CFG = FUZZ_PROFILES["fuzz-rmw"]
BACKENDS = ("eager", "lazy-vb", "retcon")


def _log(root):
    """The one verdict log under *root*."""
    (path,) = root.glob("*.jsonl")
    return path


class TestRecordAndReload:
    def test_flush_and_reload(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        corpus.record(CFG, 3, True, BACKENDS, 4)
        fresh = Corpus(tmp_path / "corpus")
        assert fresh.is_clean(CFG, 3, BACKENDS, 4)
        assert list(fresh.verdicts(CFG)) == [3]

    def test_divergences_recorded(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        corpus.record(
            CFG, 5, False, BACKENDS, 4,
            divergences=[Divergence("golden", "retcon", "boom")],
        )
        (line,) = _log(tmp_path / "corpus").read_text().splitlines()
        verdict = json.loads(line)
        assert verdict["seed"] == 5 and verdict["nthreads"] == 4
        assert not verdict["ok"]
        assert verdict["divergences"][0]["kind"] == "golden"


class TestAppendOnlyLog:
    def test_round_trip(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 0, True, ("eager",), 4)
        corpus.record(
            CFG, 1, False, ("eager",), 4,
            divergences=[Divergence("stats", "eager", "bad")],
        )
        corpus.record(CFG, 0, True, ("stm",), 4)
        assert Corpus(tmp_path).verdicts(CFG) == corpus.verdicts(CFG) == {
            0: {4: {"ok": True, "backends": ["eager", "stm"]}},
            1: {4: {
                "ok": False,
                "backends": ["eager"],
                "divergences": [
                    Divergence("stats", "eager", "bad").to_dict()
                ],
            }},
        }

    def test_appends_are_durable_line_per_record(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 0, True, ("eager",), 4)
        corpus.record(CFG, 1, True, ("eager",), 4)
        # nothing to close: every verdict is already one line on disk
        lines = _log(tmp_path).read_text().splitlines()
        assert [json.loads(line)["seed"] for line in lines] == [0, 1]

    def test_torn_tail_truncated_before_append(self, tmp_path):
        Corpus(tmp_path).record(CFG, 0, True, BACKENDS, 4)
        path = _log(tmp_path)
        # an interrupt mid-append: a partial final line, no newline
        with path.open("a") as fh:
            fh.write('{"seed": 9, "o')
        resumed = Corpus(tmp_path)
        assert resumed.is_clean(CFG, 0, BACKENDS, 4)
        resumed.record(CFG, 1, True, BACKENDS, 4)
        resumed.record(CFG, 2, True, BACKENDS, 4)
        fresh = Corpus(tmp_path)
        assert sorted(fresh.verdicts(CFG)) == [0, 1, 2]
        text = path.read_text()
        assert text.endswith("\n")
        assert all(json.loads(line) for line in text.splitlines())

    def test_corrupt_line_is_loud(self, tmp_path):
        Corpus(tmp_path).record(CFG, 0, True, BACKENDS, 4)
        path = _log(tmp_path)
        good = path.read_bytes()
        damaged = b"{not json\n" + good
        path.write_bytes(damaged)
        with pytest.raises(CampaignError, match=f"{path}:1: "):
            Corpus(tmp_path).is_clean(CFG, 0, BACKENDS, 4)
        assert path.read_bytes() == damaged  # nothing rewritten


class TestKeys:
    def test_fault_and_machine_settings_have_their_own_logs(self, tmp_path):
        """A fault exercise and a bounded-capacity campaign record
        under their own keys and never make a plain seed clean."""
        fault = Corpus(tmp_path, fault="plan-store-skew")
        bounded = Corpus(
            tmp_path, machine=MachineConfig(read_set_entries=6)
        )
        fault.record(CFG, 1, True, BACKENDS, 4)
        bounded.record(CFG, 1, True, BACKENDS, 4)
        assert len(list(tmp_path.glob("*.jsonl"))) == 2
        assert not Corpus(tmp_path).is_clean(CFG, 1, BACKENDS, 4)
        assert Corpus(
            tmp_path, machine=MachineConfig(read_set_entries=6)
        ).is_clean(CFG, 1, BACKENDS, 4)


class TestIsClean:
    def test_backend_superset_is_clean(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        assert corpus.is_clean(CFG, 1, ("eager", "retcon"), 4)

    def test_backend_subset_is_not_clean(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, ("eager",), 4)
        assert not corpus.is_clean(CFG, 1, BACKENDS, 4)

    def test_nthreads_mismatch_not_clean(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        assert not corpus.is_clean(CFG, 1, BACKENDS, 2)

    def test_diverging_seed_not_clean(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, False, BACKENDS, 4)
        assert not corpus.is_clean(CFG, 1, BACKENDS, 4)

    def test_configs_do_not_alias(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        other = FUZZ_PROFILES["fuzz-mixed"]
        assert not corpus.is_clean(other, 1, BACKENDS, 4)


class TestVerdictMerge:
    """Re-recording must accumulate, not clobber (PR 10 bugfix)."""

    def test_nthreads_4_then_8_keeps_both(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        corpus.record(CFG, 1, True, BACKENDS, 8)
        assert corpus.is_clean(CFG, 1, BACKENDS, 4)
        assert corpus.is_clean(CFG, 1, BACKENDS, 8)

    def test_nthreads_8_then_4_keeps_both(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 8)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        assert corpus.is_clean(CFG, 1, BACKENDS, 8)
        assert corpus.is_clean(CFG, 1, BACKENDS, 4)

    def test_merge_survives_flush_and_reload(self, tmp_path):
        Corpus(tmp_path).record(CFG, 1, True, BACKENDS, 4)
        Corpus(tmp_path).record(CFG, 1, True, BACKENDS, 8)
        fresh = Corpus(tmp_path)
        assert fresh.is_clean(CFG, 1, BACKENDS, 4)
        assert fresh.is_clean(CFG, 1, BACKENDS, 8)

    def test_backends_union_on_clean_rerecord(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, ("eager",), 4)
        corpus.record(CFG, 1, True, ("stm",), 4)
        assert corpus.is_clean(CFG, 1, ("eager", "stm"), 4)

    def test_diverging_rerecord_replaces_not_unions(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, ("eager",), 4)
        corpus.record(
            CFG, 1, False, ("retcon",), 4,
            divergences=[Divergence("stats", "retcon", "bad")],
        )
        assert not corpus.is_clean(CFG, 1, ("eager",), 4)
        assert not corpus.is_clean(CFG, 1, ("retcon",), 4)

    def test_other_nthreads_survive_a_diverging_verdict(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 1, True, BACKENDS, 4)
        corpus.record(CFG, 1, False, BACKENDS, 8)
        assert corpus.is_clean(CFG, 1, BACKENDS, 4)
        assert not corpus.is_clean(CFG, 1, BACKENDS, 8)


class TestResume:
    def test_next_seed_past_highest(self, tmp_path):
        corpus = Corpus(tmp_path)
        for seed in range(8):
            corpus.record(CFG, seed, True, BACKENDS, 4)
        assert corpus.unscreened(CFG, BACKENDS, 4, 1) == [8]

    def test_unscreened_fills_gaps(self, tmp_path):
        corpus = Corpus(tmp_path)
        assert corpus.unscreened(CFG, BACKENDS, 4, 2) == [0, 1]
        for seed in (0, 1, 3):
            corpus.record(CFG, seed, True, BACKENDS, 4)
        assert corpus.unscreened(CFG, BACKENDS, 4, 2) == [2, 4]

    def test_a_diverging_verdict_covers_its_seed(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.record(CFG, 0, False, BACKENDS, 4)
        corpus.record(CFG, 1, True, ("eager",), 4)
        assert corpus.unscreened(CFG, BACKENDS, 4, 2) == [1, 2]
        assert corpus.unscreened(CFG, BACKENDS, 8, 1) == [0]


class TestVersionScoping:
    def test_version_mismatch_discards(self, tmp_path, monkeypatch):
        Corpus(tmp_path).record(CFG, 1, True, BACKENDS, 4)
        old = _log(tmp_path)
        before = old.read_bytes()
        monkeypatch.setattr(corpus_mod, "__version__", "0.0.0")
        bumped = Corpus(tmp_path)
        assert not bumped.is_clean(CFG, 1, BACKENDS, 4)
        bumped.record(CFG, 1, True, BACKENDS, 4)
        assert len(list(tmp_path.glob("*.jsonl"))) == 2
        assert old.read_bytes() == before


class TestDivergingCases:
    def test_save_diverging_round_trips(self, tmp_path):
        from repro.fuzz.gen import FuzzCase

        corpus = Corpus(tmp_path)
        case = generate_case(2, CFG, nthreads=2)
        path = corpus.save_diverging(
            case, [Divergence("stats", "eager", "bad")]
        )
        data = json.loads(path.read_text())
        back = FuzzCase.from_dict(data["case"])
        assert back.to_dict() == case.to_dict()
        assert data["divergences"][0]["backend"] == "eager"
