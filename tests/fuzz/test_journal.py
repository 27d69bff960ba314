"""Campaign journal: append/replay, torn tails, resume validation."""

import json

import pytest

from repro.fuzz.diff import Divergence
from repro.fuzz.journal import CampaignError, CampaignJournal

FP = {"backends": ["eager"], "nthreads": 4}


def _journal(tmp_path, campaign="night"):
    return CampaignJournal(tmp_path, campaign)


class TestAppendAndReplay:
    def test_round_trip(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.batch(0, {"fuzz-rmw": [0, 1, 2]})
        journal.verdict("fuzz-rmw", 0, True, 4, ("eager",))
        journal.verdict(
            "fuzz-rmw", 1, False, 4, ("eager",),
            divergences=[Divergence("stats", "eager", "bad")],
        )
        journal.batch_done(0)
        journal.close()

        fresh = _journal(tmp_path)
        kinds = [r["t"] for r in fresh.records()]
        assert kinds == [
            "campaign", "batch", "verdict", "verdict", "batch-done",
        ]
        verdicts = fresh.verdicts()
        assert verdicts[0]["ok"] and verdicts[0]["seed"] == 0
        assert not verdicts[1]["ok"]
        assert verdicts[1]["divergences"][0]["kind"] == "stats"
        assert fresh.batches_done() == 1

    def test_verdicted_and_pending(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.batch(0, {"fuzz-rmw": [0, 1, 2], "fuzz-mixed": [0]})
        journal.verdict("fuzz-rmw", 1, True, 4, ("eager",))
        assert journal.verdicted() == {("fuzz-rmw", 1)}
        assert journal.pending() == {
            "fuzz-rmw": [0, 2],
            "fuzz-mixed": [0],
        }

    def test_fully_verdicted_batch_has_no_pending(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.batch(0, {"fuzz-rmw": [0]})
        journal.verdict("fuzz-rmw", 0, True, 4, ("eager",))
        assert journal.pending() == {}

    def test_torn_tail_ignored(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.verdict("fuzz-rmw", 0, True, 4, ("eager",))
        journal.close()
        # simulate an interrupt mid-append: a partial final line
        with journal.path.open("a") as fh:
            fh.write('{"t": "verdict", "profile": "fuzz-r')
        fresh = _journal(tmp_path)
        assert [r["t"] for r in fresh.records()] == ["campaign", "verdict"]
        assert fresh.verdicted() == {("fuzz-rmw", 0)}

    def test_appends_are_durable_line_per_record(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.verdict("fuzz-rmw", 0, True, 4, ("eager",))
        # no close(): every append must already be on disk
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)


class TestResumeCheck:
    def test_missing_journal_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="no journal"):
            _journal(tmp_path).resume_check(FP)

    def test_matching_fingerprint_resumes(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.close()
        fresh = _journal(tmp_path)
        fresh.resume_check(FP)
        assert fresh.records()[-1]["t"] == "resumed"

    def test_fingerprint_mismatch_refused(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.close()
        with pytest.raises(CampaignError, match="do not match"):
            _journal(tmp_path).resume_check(
                {"backends": ["eager", "stm"], "nthreads": 4}
            )

    def test_version_mismatch_refused(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(FP)
        journal.close()
        data = journal.path.read_text().replace(
            json.dumps(__import__("repro").__version__), '"0.0.0"'
        )
        journal.path.write_text(data)
        with pytest.raises(CampaignError, match="start a fresh"):
            _journal(tmp_path).resume_check(FP)

    def test_headerless_journal_refused(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append({"t": "batch", "n": 0, "seeds": {}})
        journal.close()
        with pytest.raises(CampaignError, match="no campaign header"):
            _journal(tmp_path).resume_check(FP)
