"""Contention management policies (paper §2).

When a conflict occurs the system either (1) aborts the local
speculation, (2) aborts the remote speculation, or (3) stalls the
requester, taking care that stalling cannot deadlock.

A policy is a function ``(requester_ts, holder_ts, requester_nontx,
requester_id, holder_id) -> Action`` for one requester/holder pair;
:data:`POLICIES` names the three Figure 2 compares.

The baseline uses the "oldest transaction wins" timestamp policy: an
older requester aborts the younger holder; a younger requester stalls
until the older holder commits.  Stalling is deadlock-free because a
transaction only ever waits on a strictly older one, and ages form a
total order.
"""

from __future__ import annotations

import enum


class Action(enum.Enum):
    ABORT_SELF = "abort_self"
    ABORT_REMOTE = "abort_remote"
    STALL = "stall"


def timestamp(
    requester_ts: int,
    holder_ts: int,
    requester_nontx: bool,
    requester_id: int,
    holder_id: int,
) -> Action:
    """Oldest transaction wins (the baseline policy).

    Non-transactional requesters always win (they cannot be rolled
    back), which also guarantees their forward progress.

    Age is the ``(timestamp, core id)`` pair: two transactions that
    begin on the same cycle share a timestamp, and without the core-id
    tie-break both directions of such a conflict would resolve to
    STALL — a guaranteed wait cycle that only the deadlock detector's
    abort could break.  The lexicographic order stays total, so
    stalling still only ever waits on a strictly older transaction.
    """
    if requester_nontx or requester_ts < holder_ts:
        return Action.ABORT_REMOTE
    if requester_ts == holder_ts and requester_id < holder_id:
        return Action.ABORT_REMOTE
    return Action.STALL


def requester_aborts(
    requester_ts: int,
    holder_ts: int,
    requester_nontx: bool,
    requester_id: int,
    holder_id: int,
) -> Action:
    """The requester always loses and aborts (Figure 2c, "EagerTM")."""
    return Action.ABORT_REMOTE if requester_nontx else Action.ABORT_SELF


def requester_stalls(
    requester_ts: int,
    holder_ts: int,
    requester_nontx: bool,
    requester_id: int,
    holder_id: int,
) -> Action:
    """The requester always stalls (Figure 2d, "EagerTM-Stall").

    Pure stalling can deadlock on cyclic waits; the system layer
    breaks a detected cycle by aborting the younger transaction, so
    this policy is safe to use on arbitrary workloads.
    """
    return Action.ABORT_REMOTE if requester_nontx else Action.STALL


POLICIES = {
    "timestamp": timestamp,
    "requester-aborts": requester_aborts,
    "requester-stalls": requester_stalls,
}


def get_policy(name: str):
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown contention policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        ) from None
