"""Fuzz campaigns: seed batches through the differential checker.

A campaign screens a seed range for each profile in one pass: each
(profile, seed) that is not already recorded clean in the
``.repro-fuzz/`` corpus runs through :func:`repro.fuzz.diff.run_case`
— oracle, workload invariants, strict golden memory equality
(commutative profiles), commit-order serializability replay and traced
stats sanity on every backend — fanned out across the experiment
engine's process pool (:func:`repro.exp.engine.run_tasks`; the
sequential ``--jobs 1`` path yields bit-identical verdicts).  Clean
verdicts are recorded in the corpus, the only cleanliness cache, so
the next campaign only pays for new seeds.

Standing campaigns add two pieces on top:

* ``--campaign <id>`` journals every batch issued and verdict reached
  to an append-only JSONL audit log
  (:mod:`repro.fuzz.journal`); ``--campaign <id> --resume`` replays
  the journal, re-screens zero already-verdicted seeds, and picks up
  the interrupted batch tail first.  The corpus flushes only at batch
  boundaries; the journal is the write-ahead log that makes that
  transactional.
* under ``--minutes``, the per-batch seed budget is split across
  profiles by :class:`repro.fuzz.schedule.GeneScheduler` — weighted
  by which (backend, signal) pairs each profile has historically
  diverged on, with an epsilon-greedy floor so no profile starves.
  The ``--minutes`` deadline is enforced before a batch starts and
  before *each* seed (the in-flight seed finishes cleanly), not just
  between whole batches.

On divergence the campaign saves the full case to the corpus, runs
the ddmin shrinker, emits a regression test under
``tests/fuzz/regressions/``, and reports the reproduction recipe
(profile, seed, backends) — the same seed deterministically re-expands
to the same program.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from repro.exp.engine import run_tasks
from repro.fuzz.corpus import Corpus
from repro.fuzz.diff import DEFAULT_BACKENDS, run_case
from repro.fuzz.gen import FUZZ_PROFILES, config_hash, generate_case
from repro.fuzz.journal import CampaignError, CampaignJournal
from repro.fuzz.schedule import DEFAULT_EPSILON, GeneScheduler
from repro.fuzz.shrink import (
    REGRESSION_DIR,
    divergence_predicate,
    emit_regression,
    shrink_case,
)
from repro.sim.config import MachineConfig

__all__ = [
    "CampaignError",
    "CampaignOptions",
    "CampaignReport",
    "run_campaign",
    "smoke_options",
]

#: seeds per profile in one --smoke run: 3 profiles x 70 = 210
#: programs (the ISSUE acceptance floor is 200 across >= 3 backends)
SMOKE_SEEDS = 70

#: seeds per batch when fuzzing under a --minutes time budget
BATCH_SEEDS = 25


@dataclass
class CampaignOptions:
    """Everything a fuzz campaign run is parameterized by."""

    profiles: tuple = tuple(FUZZ_PROFILES)
    backends: tuple = DEFAULT_BACKENDS
    nthreads: int = 4
    seed_start: Optional[int] = None  # None: resume past the corpus
    seeds: int = SMOKE_SEEDS
    minutes: Optional[float] = None
    jobs: Optional[int] = None
    shrink: bool = True
    emit: bool = True
    #: inject a check/faults.py fault (shrinker exercise; expect red)
    fault: Optional[str] = None
    fault_seed: int = 0
    #: machine-config override (e.g. bounded speculative-set
    #: capacities); non-None campaigns skip the corpus, whose clean
    #: verdicts are keyed by generator config only
    config: Optional[MachineConfig] = None
    corpus_root: Path = Path(".repro-fuzz")
    regression_dir: Path = REGRESSION_DIR
    quiet: bool = False
    #: journaled-campaign id (None: unjournaled one-shot run)
    campaign: Optional[str] = None
    #: continue the named campaign from its journal
    resume: bool = False
    #: coverage-guided per-batch budget allocation (--minutes runs)
    schedule: bool = True
    #: exploration share of each scheduled batch
    epsilon: float = DEFAULT_EPSILON


@dataclass
class CampaignReport:
    """What a campaign did."""

    programs: int = 0
    skipped_clean: int = 0
    #: verdicts restored from the journal on --resume (not re-screened)
    restored: int = 0
    batches: int = 0
    diverging: list = field(default_factory=list)  # (profile, seed)
    divergences: list = field(default_factory=list)
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
        restored = (
            f", {self.restored} restored from journal"
            if self.restored
            else ""
        )
        return (
            f"fuzz: {self.programs} programs screened "
            f"({self.skipped_clean} already clean in corpus{restored}), "
            f"{verdict}, {self.elapsed:.1f}s"
        )


def _say(opts: CampaignOptions, message: str) -> None:
    if not opts.quiet:
        print(message, file=sys.stderr, flush=True)


def _fingerprint(opts: CampaignOptions) -> dict:
    """The correctness-affecting options a resume must match.

    Resource knobs (jobs, minutes, batch seeds) may change between
    resumes; anything that changes what a verdict *means* may not.
    Round-tripped through JSON so it compares equal to a journal read.
    """
    import json

    raw = {
        "profiles": sorted(opts.profiles),
        "backends": sorted(opts.backends),
        "nthreads": opts.nthreads,
        "seed_start": opts.seed_start,
        "fault": opts.fault,
        "fault_seed": opts.fault_seed,
        "config": asdict(opts.config) if opts.config is not None else None,
    }
    return json.loads(json.dumps(raw, sort_keys=True, default=list))


def _seed_range(
    opts: CampaignOptions, corpus: Corpus, profile: str, count: int
) -> list[int]:
    config = FUZZ_PROFILES[profile]
    start = (
        opts.seed_start
        if opts.seed_start is not None
        else corpus.next_seed(config)
    )
    return list(range(start, start + count))


@dataclass(frozen=True)
class _DeepSettings:
    """The picklable slice of CampaignOptions a pool worker needs."""

    backends: tuple
    nthreads: int
    fault: Optional[str]
    fault_seed: int
    config: Optional[MachineConfig]


def _deep_worker(settings: _DeepSettings, task: tuple):
    """Pool task: expand one (profile, seed) and differentially run it."""
    profile, seed = task
    case = generate_case(
        seed,
        FUZZ_PROFILES[profile],
        nthreads=settings.nthreads,
        origin=profile,
    )
    return run_case(
        case,
        backends=settings.backends,
        fault=settings.fault,
        fault_seed=settings.fault_seed,
        config=settings.config,
    )


def _deep_phase(
    opts: CampaignOptions,
    corpus: Corpus,
    batches: dict[str, list[int]],
    report: CampaignReport,
    journal: Optional[CampaignJournal] = None,
    deadline: Optional[float] = None,
) -> None:
    """Differentially execute every non-clean seed; handle divergences.

    Fans :func:`repro.fuzz.diff.run_case` out through the experiment
    engine's process pool (``opts.jobs``); verdicts are journaled and
    recorded into the corpus in completion order (the corpus file is
    key-sorted, so the final state is order-independent), then
    divergences are triaged in deterministic (profile, seed) order.
    A ``deadline`` stops dispatch per seed — in-flight seeds finish
    cleanly and unrun seeds stay pending in the journal for a resume.
    """
    # Corpus clean verdicts are keyed by the generator config only,
    # so campaigns with a fault or machine-config override neither
    # trust nor record them.
    plain = opts.fault is None and opts.config is None
    tasks: list[tuple[str, int]] = []
    for profile, seeds in batches.items():
        config = FUZZ_PROFILES[profile]
        for seed in seeds:
            if plain and corpus.is_clean(
                config, seed, opts.backends, opts.nthreads
            ):
                report.skipped_clean += 1
                if journal is not None:
                    journal.verdict(
                        profile,
                        seed,
                        True,
                        opts.nthreads,
                        opts.backends,
                        source="corpus",
                    )
                continue
            tasks.append((profile, seed))

    settings = _DeepSettings(
        backends=tuple(opts.backends),
        nthreads=opts.nthreads,
        fault=opts.fault,
        fault_seed=opts.fault_seed,
        config=opts.config,
    )
    stop = (
        None
        if deadline is None
        else (lambda: time.perf_counter() >= deadline)
    )
    outcomes = []
    for _index, task, outcome in run_tasks(
        tasks, partial(_deep_worker, settings), jobs=opts.jobs, stop=stop
    ):
        profile, seed = task
        report.programs += 1
        if plain:
            corpus.record(
                FUZZ_PROFILES[profile],
                seed,
                outcome.ok,
                opts.backends,
                opts.nthreads,
                divergences=outcome.divergences,
            )
        if journal is not None:
            journal.verdict(
                profile,
                seed,
                outcome.ok,
                opts.nthreads,
                opts.backends,
                divergences=outcome.divergences,
            )
        if not outcome.ok:
            outcomes.append((profile, seed, outcome))

    for profile, seed, outcome in sorted(
        outcomes, key=lambda entry: (entry[0], entry[1])
    ):
        report.diverging.append((profile, seed))
        report.divergences.extend(outcome.divergences)
        _say(opts, f"DIVERGENCE {profile} seed={seed}")
        for div in outcome.divergences:
            _say(opts, f"  {div}")
        _say(
            opts,
            f"  reproduce: repro fuzz --profiles {profile} "
            f"--seed-start {seed} --seeds 1 --backends "
            f"{' '.join(opts.backends)}"
            + (f" --fault {opts.fault}" if opts.fault else ""),
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
        fault_seed=opts.fault_seed,
        config=opts.config,
    )
    result = shrink_case(case, predicate)
    if result is None:  # did not reproduce under the predicate
        return
    report.shrink_summaries.append(result.summary())
    _say(opts, f"  {result.summary()}")
    if opts.emit:
        outcome = run_case(
            result.case,
            backends=opts.backends,
            fault=opts.fault,
            fault_seed=opts.fault_seed,
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
        _say(opts, f"  regression written: {path}")


def _open_journal(
    opts: CampaignOptions, corpus: Corpus, report: CampaignReport
) -> tuple[Optional[CampaignJournal], dict]:
    """Create or resume the campaign journal; returns (journal, carry).

    On resume, journaled verdicts are replayed into the corpus (the
    journal is the write-ahead log; an interrupt may have landed
    between a verdict and the corpus flush) and the issued-but-
    unverdicted seeds of the interrupted batch come back as ``carry``
    — the first batch the resumed campaign runs.
    """
    if opts.resume and not opts.campaign:
        raise CampaignError("--resume requires --campaign <id>")
    if not opts.campaign:
        return None, {}
    journal = CampaignJournal(opts.corpus_root, opts.campaign)
    fingerprint = _fingerprint(opts)
    if not opts.resume:
        if journal.exists():
            raise CampaignError(
                f"campaign {opts.campaign!r} already has a journal at "
                f"{journal.path}; pass --resume to continue it"
            )
        journal.begin(fingerprint)
        return journal, {}
    journal.resume_check(fingerprint)
    plain = opts.fault is None and opts.config is None
    for verdict in journal.verdicts():
        report.restored += 1
        if plain and verdict.get("source") != "corpus":
            corpus.record(
                FUZZ_PROFILES[verdict["profile"]],
                verdict["seed"],
                verdict["ok"],
                tuple(verdict.get("backends", opts.backends)),
                verdict.get("nthreads", opts.nthreads),
                divergences=verdict.get("divergences"),
            )
    corpus.flush()
    return journal, journal.pending()


def run_campaign(opts: CampaignOptions) -> CampaignReport:
    """Run one fuzz campaign (one seed range, or --minutes batches)."""
    started = time.perf_counter()
    corpus = Corpus(opts.corpus_root)
    report = CampaignReport()
    plain = opts.fault is None and opts.config is None

    journal, carry = _open_journal(opts, corpus, report)
    done = journal.verdicted() if journal is not None else set()

    deadline = (
        started + opts.minutes * 60.0
        if opts.minutes is not None
        else None
    )
    batch_size = opts.seeds if deadline is None else BATCH_SEEDS
    scheduler = None
    if (
        opts.schedule
        and plain
        and opts.seed_start is None
        and len(opts.profiles) > 1
    ):
        scheduler = GeneScheduler(
            corpus, opts.profiles, epsilon=opts.epsilon
        )
    batch_index = journal.batches_done() if journal is not None else 0

    first = True
    while first or carry or (
        deadline is not None and time.perf_counter() < deadline
    ):
        first = False
        if carry:
            batches = carry
            carry = {}
        else:
            if scheduler is not None:
                allocation = scheduler.allocate(
                    batch_size * len(opts.profiles)
                )
            else:
                allocation = {
                    profile: batch_size for profile in opts.profiles
                }
            batches = {
                profile: _seed_range(opts, corpus, profile, count)
                for profile, count in allocation.items()
                if count > 0
            }
        if done:
            batches = {
                profile: [s for s in seeds if (profile, s) not in done]
                for profile, seeds in batches.items()
            }
        batches = {p: seeds for p, seeds in batches.items() if seeds}
        if not batches:
            break
        # Deadline check before a batch starts: a batch can take many
        # minutes, so never start one past the budget (the journal
        # keeps unstarted seeds pending).
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if journal is not None:
            journal.batch(batch_index, batches)
        for profile, seeds in batches.items():
            _say(
                opts,
                f"fuzz {profile}: seeds {seeds[0]}..{seeds[-1]} on "
                f"{'/'.join(opts.backends)} "
                f"(cfg {config_hash(FUZZ_PROFILES[profile])})",
            )
        _deep_phase(
            opts, corpus, batches, report,
            journal=journal, deadline=deadline,
        )
        corpus.flush()
        report.batches += 1
        if journal is not None:
            if deadline is None or time.perf_counter() < deadline:
                journal.batch_done(batch_index)
            done = journal.verdicted()
        batch_index += 1
        if opts.seed_start is not None or not plain:
            # fixed ranges (and fault/config exercises, which skip
            # the corpus) don't advance; one pass only
            break
        if deadline is None:
            break
    report.elapsed = time.perf_counter() - started
    if journal is not None:
        journal.close()
    return report


def smoke_options(**overrides) -> CampaignOptions:
    """The CI configuration: fixed seeds 0..69 per profile (210
    programs) across eager/lazy-vb/retcon, deterministic and cached."""
    defaults = dict(seed_start=0, seeds=SMOKE_SEEDS)
    defaults.update(overrides)
    return CampaignOptions(**defaults)
