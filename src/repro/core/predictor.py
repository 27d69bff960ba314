"""The conflict-trained tracking predictor (paper §5.1).

"RETCON uses a predictor to determine which data blocks invoke
value-based and symbolic tracking.  The predictor learns based on
observed conflicts.  To avoid elongating the amount of time that is
spent in transactions that will eventually abort, a violated
constraint causes the predictor to train down aggressively, requiring
the observation of 100 conflicts on that block before attempting
symbolic tracking on that block again."

Each core has its own predictor instance (a per-processor hardware
table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Conflicts on a never-violated block before it is first tracked.
TRAIN_THRESHOLD = 1
#: Fresh conflicts a block needs after a violated constraint (§5.1).
BACKOFF = 100


@dataclass
class ConflictPredictor:
    """Per-core predictor mapping block number → tracking decision."""

    always_track: bool = False
    #: block → conflicts still owed before tracking starts; a block is
    #: tracked once its count is ≤ 0, and an absent block is untracked.
    _owed: dict[int, int] = field(default_factory=dict)

    def should_track(self, block: int) -> bool:
        """Should accesses to *block* use value-based/symbolic tracking?"""
        if self.always_track:
            return True
        owed = self._owed.get(block)
        return owed is not None and owed <= 0

    def observe_conflict(self, block: int) -> None:
        """A conflict involving *block* was observed; train up."""
        self._owed[block] = self._owed.get(block, TRAIN_THRESHOLD) - 1

    def observe_violation(self, block: int) -> None:
        """A commit-time constraint on *block* was violated; train down
        hard (require :data:`BACKOFF` fresh conflicts before retrying)."""
        self._owed[block] = BACKOFF
