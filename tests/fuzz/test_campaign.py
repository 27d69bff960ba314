"""Campaign orchestration: corpus reuse, resume by rerun, parallel
deep phase, deadlines, fault exercise end to end."""

import pytest

import repro.fuzz.campaign as campaign_mod
from repro.fuzz.campaign import (
    CampaignOptions,
    CampaignReport,
    run_campaign,
)
from repro.fuzz.corpus import Corpus
from repro.fuzz.gen import FUZZ_PROFILES
from repro.sim.config import MachineConfig

CFG = FUZZ_PROFILES["fuzz-rmw"]

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


class TestResumeByRerun:
    def _opts(self, tmp_path, **overrides):
        defaults = dict(seeds=5, shrink=False)
        defaults.update(overrides)
        return _options(tmp_path, **defaults)

    def test_interrupt_resume_rescreens_nothing(self, tmp_path,
                                                monkeypatch):
        """Interrupt after two of five seeds, rerun the identical
        options: neither verdicted seed runs again, and the folded
        corpus equals that of a never-interrupted campaign."""
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
        report = run_campaign(self._opts(tmp_path))
        assert report.ok
        assert report.skipped_clean == 2
        assert report.programs == 3
        assert sorted(first_calls + calls) == [0, 1, 2, 3, 4]
        assert not set(first_calls) & set(calls)

        reference = run_campaign(
            self._opts(tmp_path, corpus_root=tmp_path / "reference")
        )
        assert reference.ok
        assert (
            Corpus(tmp_path / "corpus").verdicts(CFG)
            == Corpus(tmp_path / "reference").verdicts(CFG)
        )

    def test_rerun_of_finished_campaign_is_a_noop(self, tmp_path):
        run_campaign(self._opts(tmp_path))
        report = run_campaign(self._opts(tmp_path))
        assert report.ok
        assert report.programs == 0
        assert report.skipped_clean == 5

    def test_open_ended_batches_fill_gaps_first(self, tmp_path,
                                                monkeypatch):
        """Open-ended batches take the lowest unscreened seeds, so the
        gap a cut batch leaves is the first thing the next one runs."""
        corpus = Corpus(tmp_path / "corpus")
        for seed in (0, 1, 3):
            corpus.record(CFG, seed, True, ("eager", "retcon"), 4)
        ran: list[int] = []
        real_run_case = campaign_mod.run_case
        monkeypatch.setattr(
            campaign_mod, "run_case",
            lambda case, **kw: ran.append(case.seed)
            or real_run_case(case, **kw),
        )
        report = run_campaign(self._opts(tmp_path, seed_start=None,
                                         seeds=2))
        assert ran == [2, 4]
        assert report.programs == 2 and report.skipped_clean == 0


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
            reports[name] = report
        assert reports["seq"].programs == len(seeds)
        assert reports["par"].programs == len(seeds)
        assert reports["seq"].diverging == reports["par"].diverging
        # lines land in completion order; the folded verdicts agree
        assert (
            Corpus(tmp_path / "seq").verdicts(CFG)
            == Corpus(tmp_path / "par").verdicts(CFG)
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

    def test_fault_and_config_campaigns_record_under_their_own_key(
        self, tmp_path
    ):
        opts = dict(seed_start=0, seeds=1, shrink=False)
        run_campaign(_options(tmp_path, fault="plan-store-skew",
                              backends=("lazy-vb",), **opts))
        bounded = _options(
            tmp_path, config=MachineConfig(read_set_entries=6), **opts
        )
        assert run_campaign(bounded).programs == 1
        assert len(list((tmp_path / "corpus").glob("*.jsonl"))) == 2
        assert run_campaign(bounded).programs == 0
        assert not Corpus(tmp_path / "corpus").is_clean(
            CFG, 0, ("eager", "retcon"), 4
        )
