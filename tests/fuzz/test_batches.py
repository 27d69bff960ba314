"""Which seeds a campaign batch screens.  ``run_case`` is stubbed, so
nothing is simulated: only the seed selection is under test."""

import pytest

import repro.fuzz.campaign as campaign_mod
from repro.fuzz.campaign import CampaignOptions, run_campaign
from repro.fuzz.corpus import Corpus
from repro.fuzz.diff import CaseOutcome, Divergence
from repro.fuzz.gen import FUZZ_PROFILES

BACKENDS = ("eager", "retcon")


@pytest.fixture
def screened(monkeypatch):
    """The (profile, seed) pairs run_case is called on; all clean."""
    ran: list[tuple[str, int]] = []

    def stub(case, backends, **kwargs):
        ran.append((case.origin, case.seed))
        return CaseOutcome(case=case, backends=tuple(backends))

    monkeypatch.setattr(campaign_mod, "run_case", stub)
    return ran


def _options(tmp_path, **overrides):
    defaults = dict(
        backends=BACKENDS,
        jobs=1,
        shrink=False,
        emit=False,
        corpus_root=tmp_path / "corpus",
        regression_dir=tmp_path / "regressions",
    )
    defaults.update(overrides)
    return CampaignOptions(**defaults)


def test_seeds_is_the_batch_size_under_minutes(tmp_path, screened):
    """``--seeds`` used to be ignored under ``--minutes`` (every batch
    was 25 seeds); a fixed range now stops after its ``--seeds``."""
    profiles = ("fuzz-mixed", "fuzz-rmw")
    report = run_campaign(
        _options(tmp_path, profiles=profiles, seed_start=0, seeds=2,
                 minutes=10)
    )
    assert sorted(screened) == [
        (profile, seed) for profile in profiles for seed in (0, 1)
    ]
    assert report.ok and report.programs == 4 and report.batches == 1


def test_open_ended_batch_takes_seeds_per_profile_past_a_divergence(
    tmp_path, screened
):
    """A diverging verdict buys its profile no extra seeds, and covers
    its seed: each profile screens its ``seeds`` lowest unscreened."""
    profiles = ("fuzz-mixed", "fuzz-rmw", "fuzz-branchy")
    Corpus(tmp_path / "corpus").record(
        FUZZ_PROFILES["fuzz-rmw"], 0, False, BACKENDS, 4,
        divergences=[Divergence("oracle", "retcon", "boom")],
    )
    report = run_campaign(_options(tmp_path, profiles=profiles, seeds=3))
    assert sorted(screened) == sorted(
        [("fuzz-mixed", s) for s in (0, 1, 2)]
        + [("fuzz-rmw", s) for s in (1, 2, 3)]
        + [("fuzz-branchy", s) for s in (0, 1, 2)]
    )
    assert report.ok and report.programs == 9 and report.batches == 1
