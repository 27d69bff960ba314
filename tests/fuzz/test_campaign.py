"""Campaign orchestration: corpus reuse, journaled resume, parallel
deep phase, deadlines, fault exercise end to end."""

import pytest

import repro.fuzz.campaign as campaign_mod
from repro.fuzz.campaign import (
    CampaignError,
    CampaignOptions,
    CampaignReport,
    run_campaign,
)
from repro.fuzz.corpus import Corpus
from repro.fuzz.gen import FUZZ_PROFILES, config_hash

pytestmark = pytest.mark.slow


def _options(tmp_path, **overrides):
    defaults = dict(
        profiles=("fuzz-rmw",),
        backends=("eager", "retcon"),
        seed_start=0,
        seeds=2,
        jobs=1,
        corpus_root=tmp_path / "corpus",
        regression_dir=tmp_path / "regressions",
        quiet=True,
    )
    defaults.update(overrides)
    return CampaignOptions(**defaults)


class TestCleanCampaign:
    def test_screens_and_records(self, tmp_path):
        report = run_campaign(_options(tmp_path))
        assert report.ok
        assert report.programs == 2
        assert report.skipped_clean == 0
        # second run with the same range: everything comes from corpus
        again = run_campaign(_options(tmp_path))
        assert again.programs == 0
        assert again.skipped_clean == 2

    def test_report_summary_mentions_counts(self, tmp_path):
        report = run_campaign(_options(tmp_path))
        assert "2 programs" in report.summary()
        assert "all clean" in report.summary()


class TestJournaledResume:
    def _opts(self, tmp_path, **overrides):
        defaults = dict(seeds=5, campaign="night", shrink=False)
        defaults.update(overrides)
        return _options(tmp_path, **defaults)

    def test_interrupt_resume_rescreens_nothing(self, tmp_path,
                                                monkeypatch):
        """ISSUE acceptance: interrupt mid-batch, resume, zero
        already-verdicted seeds re-screened (journal-verified), and
        the final corpus is identical to an uninterrupted run."""
        real_run_case = campaign_mod.run_case
        calls: list[int] = []

        def interrupting(case, **kwargs):
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(case.seed)
            return real_run_case(case, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_case", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(self._opts(tmp_path))
        first_calls = list(calls)
        assert len(first_calls) == 2

        calls.clear()
        monkeypatch.setattr(
            campaign_mod, "run_case",
            lambda case, **kw: (calls.append(case.seed)
                                or real_run_case(case, **kw)),
        )
        report = run_campaign(self._opts(tmp_path, resume=True))
        assert report.ok
        # journal-verified: the two verdicted seeds were restored,
        # the other three ran, and no seed ran twice
        assert report.restored == 2
        assert report.programs == 3
        assert sorted(first_calls + calls) == [0, 1, 2, 3, 4]
        assert not set(first_calls) & set(calls)

        journal = campaign_mod.CampaignJournal(
            tmp_path / "corpus", "night"
        )
        verdicts = journal.verdicts()
        assert {(v["profile"], v["seed"]) for v in verdicts} == {
            ("fuzz-rmw", seed) for seed in range(5)
        }
        assert len(verdicts) == 5  # one verdict per seed, no repeats

        # identical final corpus to a never-interrupted campaign
        reference = run_campaign(
            _options(tmp_path, seeds=5, shrink=False,
                     corpus_root=tmp_path / "reference")
        )
        assert reference.ok
        cfg = config_hash(FUZZ_PROFILES["fuzz-rmw"])
        assert (
            (tmp_path / "corpus" / f"{cfg}.json").read_text()
            == (tmp_path / "reference" / f"{cfg}.json").read_text()
        )

    def test_resume_of_finished_campaign_is_a_noop(self, tmp_path):
        run_campaign(self._opts(tmp_path))
        report = run_campaign(self._opts(tmp_path, resume=True))
        assert report.ok
        assert report.programs == 0
        assert report.restored == 5

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(CampaignError, match="no journal"):
            run_campaign(self._opts(tmp_path, resume=True))

    def test_restarting_an_existing_campaign_refused(self, tmp_path):
        run_campaign(self._opts(tmp_path))
        with pytest.raises(CampaignError, match="--resume"):
            run_campaign(self._opts(tmp_path))

    def test_resume_with_changed_options_refused(self, tmp_path):
        run_campaign(self._opts(tmp_path))
        with pytest.raises(CampaignError, match="do not match"):
            run_campaign(
                self._opts(tmp_path, resume=True,
                           backends=("eager", "lazy-vb"))
            )


class TestParallelDeepPhase:
    def test_parallel_matches_sequential_on_fixed_range(self, tmp_path):
        """ISSUE acceptance: the pooled deep phase produces verdicts
        identical to the sequential path on a fixed 30-seed range."""
        seeds = list(range(30))
        reports = {}
        for jobs, name in ((1, "seq"), (4, "par")):
            opts = _options(
                tmp_path, jobs=jobs, shrink=False,
                corpus_root=tmp_path / name,
            )
            corpus = Corpus(opts.corpus_root)
            report = CampaignReport()
            campaign_mod._deep_phase(
                opts, corpus, {"fuzz-rmw": list(seeds)}, report
            )
            corpus.flush()
            reports[name] = report
        assert reports["seq"].programs == len(seeds)
        assert reports["par"].programs == len(seeds)
        assert reports["seq"].diverging == reports["par"].diverging
        cfg = config_hash(FUZZ_PROFILES["fuzz-rmw"])
        assert (
            (tmp_path / "seq" / f"{cfg}.json").read_text()
            == (tmp_path / "par" / f"{cfg}.json").read_text()
        )


class TestDeadline:
    def test_exhausted_budget_starts_no_batch(self, tmp_path):
        """The deadline is checked before a batch starts: a spent
        budget must not kick off a whole 25-seed batch (the old code
        overshot by the full batch)."""
        report = run_campaign(
            _options(tmp_path, seed_start=None, minutes=0.0)
        )
        assert report.ok
        assert report.programs == 0
        assert report.batches == 0

    def test_deep_phase_stops_per_seed(self, tmp_path, monkeypatch):
        """ISSUE satellite: the deadline is honoured *inside* a batch.
        With a fake clock that ticks once per completed seed, a
        deadline of 2.5 lets exactly three seeds run — the in-flight
        seed finishes cleanly, the remaining seven never dispatch."""
        import types

        real_run_case = campaign_mod.run_case
        ran: list[int] = []

        def tracking(case, **kwargs):
            ran.append(case.seed)
            return real_run_case(case, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_case", tracking)
        monkeypatch.setattr(
            campaign_mod, "time",
            types.SimpleNamespace(perf_counter=lambda: float(len(ran))),
        )
        opts = _options(tmp_path, seeds=10, shrink=False)
        corpus = Corpus(opts.corpus_root)
        report = CampaignReport()
        campaign_mod._deep_phase(
            opts, corpus, {"fuzz-rmw": list(range(10))}, report,
            deadline=2.5,
        )
        assert ran == [0, 1, 2]
        assert report.programs == 3


class TestFaultCampaign:
    def test_fault_exercise_shrinks_and_emits(self, tmp_path):
        """End-to-end ISSUE acceptance path: inject plan-store-skew,
        expect a divergence, a shrink to <= 15 instructions, and an
        emitted regression file."""
        report = run_campaign(
            _options(
                tmp_path,
                backends=("lazy-vb", "retcon"),
                seed_start=7,
                seeds=1,
                fault="plan-store-skew",
            )
        )
        assert not report.ok
        assert report.diverging == [("fuzz-rmw", 7)]
        assert report.shrink_summaries, "shrinker did not reproduce"
        assert len(report.emitted) == 1
        emitted = report.emitted[0]
        assert emitted.exists()
        assert "plan-store-skew" in emitted.read_text()
        # fault runs never pollute the clean corpus
        clean = run_campaign(_options(tmp_path, seed_start=7, seeds=1))
        assert clean.programs == 1
