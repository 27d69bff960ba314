"""Contention management policies."""

import pytest

from repro.htm import contention
from repro.htm.contention import (
    POLICIES,
    Action,
    get_policy,
    requester_aborts,
    requester_stalls,
    timestamp,
)


class TestTimestampPolicy:
    def test_older_requester_aborts_holder(self):
        assert timestamp(1, 5, False, 0, 1) is Action.ABORT_REMOTE

    def test_younger_requester_stalls(self):
        assert timestamp(5, 1, False, 0, 1) is Action.STALL

    def test_non_transactional_always_wins(self):
        assert timestamp(99, 1, True, 1, 0) is Action.ABORT_REMOTE

    def test_equal_timestamps_lower_core_id_wins(self):
        """Regression: two txns that begin on the same cycle share a
        timestamp; without the core-id tie-break both directions
        resolve to STALL and only the deadlock detector's abort can
        untangle them."""
        assert timestamp(3, 3, False, 0, 1) is Action.ABORT_REMOTE
        assert timestamp(3, 3, False, 1, 0) is Action.STALL


class TestFigure2Policies:
    def test_requester_aborts(self):
        assert requester_aborts(1, 5, False, 0, 1) is Action.ABORT_SELF

    def test_requester_stalls(self):
        assert requester_stalls(1, 5, False, 0, 1) is Action.STALL

    @pytest.mark.parametrize("policy", [requester_aborts, requester_stalls])
    def test_non_tx_requester_never_loses(self, policy):
        assert policy(1, 5, True, 0, 1) is Action.ABORT_REMOTE


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_policy("timestamp") is contention.timestamp
        assert POLICIES == {
            "timestamp": timestamp,
            "requester-aborts": requester_aborts,
            "requester-stalls": requester_stalls,
        }

    def test_unknown_name(self):
        with pytest.raises(
            ValueError, match="unknown contention policy.*requester-aborts"
        ):
            get_policy("coin-flip")
