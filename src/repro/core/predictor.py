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


@dataclass
class _BlockState:
    conflicts: int = 0
    required: int = 1  # conflicts needed before tracking is attempted


@dataclass
class ConflictPredictor:
    """Per-core predictor mapping block number → tracking decision."""

    train_threshold: int = 1
    backoff: int = 100
    always_track: bool = False
    _table: dict[int, _BlockState] = field(default_factory=dict)

    def should_track(self, block: int) -> bool:
        """Should accesses to *block* use value-based/symbolic tracking?"""
        if self.always_track:
            return True
        state = self._table.get(block)
        return state is not None and state.conflicts >= state.required

    def observe_conflict(self, block: int) -> None:
        """A conflict involving *block* was observed; train up."""
        state = self._table.get(block)
        if state is None:
            state = _BlockState(required=self.train_threshold)
            self._table[block] = state
        state.conflicts += 1

    def observe_violation(self, block: int) -> None:
        """A commit-time constraint on *block* was violated; train down
        hard (require `backoff` fresh conflicts before retrying)."""
        state = self._table.get(block)
        if state is None:
            state = self._table[block] = _BlockState()
        state.conflicts = 0
        state.required = self.backoff

    def tracked_blocks(self) -> list[int]:
        return [
            block
            for block, state in self._table.items()
            if state.conflicts >= state.required
        ]
