"""Coverage-guided seed-budget scheduling across fuzz profiles.

A standing campaign has a fixed seed budget per batch and several
generator profiles to spend it on.  Uniform allocation wastes most of
the budget on profiles that have never found anything; pure
exploitation starves the profiles that *would* find the next bug
class.  :class:`GeneScheduler` splits the difference:

* **weights** — each profile is scored by which ``(backend, signal)``
  pairs it has historically diverged on, read from the corpus
  (:meth:`repro.fuzz.corpus.Corpus.profile_stats`).  Distinct pairs
  dominate the score (a profile that shakes out oracle bugs on
  ``retcon`` *and* stats bugs on ``stm`` covers more of the check
  surface than one that re-finds the same golden mismatch), with the
  raw divergence mass contributing logarithmically so repeats still
  count without drowning breadth.
* **epsilon-greedy floor** — a fixed :data:`DEFAULT_EPSILON` share of
  every batch is spread uniformly (at least one seed per profile when
  the budget allows), so a so-far-quiet profile keeps accumulating
  coverage and can win budget the moment it first diverges.

Allocation is a pure function of the corpus state: no RNG, largest-
remainder rounding with a lexicographic tie-break, so two campaigns
over identical corpora schedule identically.
"""

from __future__ import annotations

import math

from repro.fuzz.corpus import Corpus
from repro.fuzz.gen import FUZZ_PROFILES

#: exploration share of each batch's seed budget
DEFAULT_EPSILON = 0.2


class GeneScheduler:
    """Allocates per-batch seed budgets across generator profiles."""

    def __init__(self, corpus: Corpus, profiles: tuple) -> None:
        unknown = [p for p in profiles if p not in FUZZ_PROFILES]
        if unknown:
            raise ValueError(f"unknown fuzz profiles: {unknown}")
        self.corpus = corpus
        self.profiles = tuple(profiles)

    # ------------------------------------------------------------------
    def weights(self) -> dict:
        """Per-profile exploitation weight from corpus divergence stats."""
        out = {}
        for profile in self.profiles:
            stats = self.corpus.profile_stats(FUZZ_PROFILES[profile])
            signals = stats["signals"]
            pairs = len(signals)
            mass = sum(signals.values())
            out[profile] = 1.0 + 2.0 * pairs + math.log1p(mass)
        return out

    def allocate(self, budget: int) -> dict:
        """Split *budget* seeds across the profiles (sums to budget)."""
        profiles = self.profiles
        counts = {profile: 0 for profile in profiles}
        if budget <= 0 or not profiles:
            return counts

        # exploration floor: epsilon of the budget, spread evenly,
        # at least one seed each once the budget covers the profiles
        floor = int(DEFAULT_EPSILON * budget / len(profiles))
        if budget >= len(profiles):
            floor = max(1, floor)
        floor = min(floor, budget // len(profiles))
        for profile in profiles:
            counts[profile] = floor

        # exploitation share: proportional to weight, largest-remainder
        # rounding, profile-name tie-break (fully deterministic)
        rest = budget - floor * len(profiles)
        weights = self.weights()
        total = sum(weights[p] for p in profiles)
        shares = {p: rest * weights[p] / total for p in profiles}
        for profile in profiles:
            counts[profile] += int(shares[profile])
        left = budget - sum(counts.values())
        order = sorted(
            profiles,
            key=lambda p: (-(shares[p] - int(shares[p])), p),
        )
        for profile in order[:left]:
            counts[profile] += 1
        return counts
