"""Fuzz campaigns: seed batches through the differential checker.

A campaign screens a seed range for each profile in one pass: each
(profile, seed) that is not already recorded clean in the
``.repro-fuzz/`` corpus runs through :func:`repro.fuzz.diff.run_case`
— oracle (its final-memory check included), workload invariants,
strict golden memory equality (commutative profiles) and traced stats
sanity on every backend — fanned out across the experiment
engine's process pool (:func:`repro.exp.engine.run_tasks`; the
sequential ``--jobs 1`` path yields identical verdicts).  Each verdict
is appended to the corpus (:mod:`repro.fuzz.corpus`) the moment it
exists, so every campaign resumes when the same command runs again:
a fixed range skips the seeds already clean, and an open-ended batch
(``--minutes``, or no ``--seed-start``) takes the ``--seeds`` lowest
seeds per profile the corpus has no covering verdict for, which picks
up whatever an interrupted or deadline-cut batch left unrun.  The
``--minutes`` deadline is enforced before a batch starts and before
*each* seed (the in-flight seed finishes cleanly), not just between
whole batches.

On divergence the campaign saves the full case to the corpus, runs
the ddmin shrinker, emits a regression test under
``tests/fuzz/regressions/``, and reports the reproduction recipe
(profile, seed, backends) — the same seed deterministically re-expands
to the same program.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from repro.exp.engine import run_tasks
from repro.fuzz.corpus import Corpus
from repro.fuzz.diff import DEFAULT_BACKENDS, run_case
from repro.fuzz.gen import FUZZ_PROFILES, config_hash, generate_case
from repro.fuzz.shrink import (
    REGRESSION_DIR,
    divergence_predicate,
    emit_regression,
    shrink_case,
)
from repro.sim.config import MachineConfig

__all__ = [
    "CampaignOptions",
    "CampaignReport",
    "run_campaign",
    "smoke_options",
]

#: seeds per profile in one --smoke run: 3 profiles x 70 = 210
#: programs (the ISSUE acceptance floor is 200 across >= 3 backends)
SMOKE_SEEDS = 70


@dataclass
class CampaignOptions:
    """Everything a fuzz campaign run is parameterized by."""

    profiles: tuple = tuple(FUZZ_PROFILES)
    backends: tuple = DEFAULT_BACKENDS
    nthreads: int = 4
    seed_start: Optional[int] = None  # None: the lowest unscreened seeds
    seeds: int = SMOKE_SEEDS
    minutes: Optional[float] = None
    jobs: Optional[int] = None
    shrink: bool = True
    emit: bool = True
    #: inject a check/faults.py fault (shrinker exercise; expect red)
    fault: Optional[str] = None
    #: machine-config override (e.g. bounded speculative-set
    #: capacities); like the fault, part of the corpus key
    config: Optional[MachineConfig] = None
    corpus_root: Path = Path(".repro-fuzz")
    regression_dir: Path = REGRESSION_DIR


@dataclass
class CampaignReport:
    """What a campaign did."""

    programs: int = 0
    skipped_clean: int = 0
    batches: int = 0
    diverging: list = field(default_factory=list)  # (profile, seed)
    emitted: list = field(default_factory=list)  # Paths
    shrink_summaries: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.diverging

    def summary(self) -> str:
        verdict = (
            "all clean"
            if self.ok
            else f"{len(self.diverging)} diverging cases"
        )
        return (
            f"fuzz: {self.programs} programs screened "
            f"({self.skipped_clean} already clean in corpus), "
            f"{verdict}, {self.elapsed:.1f}s"
        )


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _batch_seeds(
    opts: CampaignOptions, corpus: Corpus, profile: str
) -> list[int]:
    if opts.seed_start is not None:
        return list(range(opts.seed_start, opts.seed_start + opts.seeds))
    return corpus.unscreened(
        FUZZ_PROFILES[profile], opts.backends, opts.nthreads, opts.seeds
    )


def _deep_worker(opts: CampaignOptions, task: tuple):
    """Pool task: expand one (profile, seed) and differentially run it."""
    profile, seed = task
    case = generate_case(
        seed,
        FUZZ_PROFILES[profile],
        nthreads=opts.nthreads,
        origin=profile,
    )
    return run_case(
        case,
        backends=opts.backends,
        fault=opts.fault,
        config=opts.config,
    )


def _deep_phase(
    opts: CampaignOptions,
    corpus: Corpus,
    batches: dict[str, list[int]],
    report: CampaignReport,
    deadline: Optional[float] = None,
) -> None:
    """Differentially execute every non-clean seed; handle divergences.

    Fans :func:`repro.fuzz.diff.run_case` out through the experiment
    engine's process pool (``opts.jobs``); each verdict is appended to
    the corpus as it arrives, in completion order (the fold is
    order-independent per seed), then divergences are triaged in
    deterministic (profile, seed) order.  A ``deadline`` stops
    dispatch per seed — in-flight seeds finish cleanly, and unrun
    seeds stay unscreened for the next campaign to pick up.
    """
    tasks: list[tuple[str, int]] = []
    for profile, seeds in batches.items():
        config = FUZZ_PROFILES[profile]
        for seed in seeds:
            if corpus.is_clean(config, seed, opts.backends, opts.nthreads):
                report.skipped_clean += 1
            else:
                tasks.append((profile, seed))

    stop = (
        None
        if deadline is None
        else (lambda: time.perf_counter() >= deadline)
    )
    outcomes = []
    for _index, task, outcome in run_tasks(
        tasks, partial(_deep_worker, opts), jobs=opts.jobs, stop=stop
    ):
        profile, seed = task
        report.programs += 1
        corpus.record(
            FUZZ_PROFILES[profile],
            seed,
            outcome.ok,
            opts.backends,
            opts.nthreads,
            divergences=outcome.divergences,
        )
        if not outcome.ok:
            outcomes.append((profile, seed, outcome))

    for profile, seed, outcome in sorted(
        outcomes, key=lambda entry: (entry[0], entry[1])
    ):
        report.diverging.append((profile, seed))
        _say(f"DIVERGENCE {profile} seed={seed}")
        for div in outcome.divergences:
            _say(f"  {div}")
        _say(
            f"  reproduce: repro fuzz --profiles {profile} "
            f"--seed-start {seed} --seeds 1 --backends "
            f"{' '.join(opts.backends)}"
            + (f" --fault {opts.fault}" if opts.fault else "")
        )
        corpus.save_diverging(outcome.case, outcome.divergences)
        if opts.shrink:
            _handle_shrink(opts, outcome.case, report)


def _handle_shrink(
    opts: CampaignOptions, case, report: CampaignReport
) -> None:
    predicate = divergence_predicate(
        backends=opts.backends,
        fault=opts.fault,
        config=opts.config,
    )
    result = shrink_case(case, predicate)
    if result is None:  # did not reproduce under the predicate
        return
    report.shrink_summaries.append(result.summary())
    _say(f"  {result.summary()}")
    if opts.emit:
        outcome = run_case(
            result.case,
            backends=opts.backends,
            fault=opts.fault,
            config=opts.config,
        )
        path = emit_regression(
            result.case,
            outcome.divergences,
            backends=opts.backends,
            fault=opts.fault,
            directory=opts.regression_dir,
        )
        report.emitted.append(path)
        _say(f"  regression written: {path}")


def run_campaign(opts: CampaignOptions) -> CampaignReport:
    """Run one fuzz campaign (one seed range, or --minutes batches)."""
    started = time.perf_counter()
    corpus = Corpus(
        opts.corpus_root,
        machine=opts.config,
        fault=opts.fault,
    )
    report = CampaignReport()
    deadline = (
        started + opts.minutes * 60.0
        if opts.minutes is not None
        else None
    )
    # A batch can take many minutes: never start one past the budget.
    while deadline is None or time.perf_counter() < deadline:
        batches = {
            profile: _batch_seeds(opts, corpus, profile)
            for profile in opts.profiles
        }
        for profile, seeds in batches.items():
            _say(
                f"fuzz {profile}: {len(seeds)} seeds in "
                f"{seeds[0]}..{seeds[-1]} on {'/'.join(opts.backends)} "
                f"(cfg {config_hash(FUZZ_PROFILES[profile])})"
            )
        _deep_phase(opts, corpus, batches, report, deadline=deadline)
        report.batches += 1
        if deadline is None or opts.seed_start is not None:
            break  # one batch; a fixed range does not advance
    report.elapsed = time.perf_counter() - started
    return report


def smoke_options(**overrides) -> CampaignOptions:
    """The CI configuration: fixed seeds 0..69 per profile (210
    programs) across eager/lazy-vb/retcon, deterministic and cached."""
    defaults = dict(seed_start=0, seeds=SMOKE_SEEDS)
    defaults.update(overrides)
    return CampaignOptions(**defaults)
