"""Control-flow signals between the TM system and the core interpreter."""

from __future__ import annotations


class StallRetry(Exception):
    """The access conflicts and the requester must wait and retry.

    It names the contended block and the blocking cores, and the core
    that catches it charges the (backed-off) retry latency to conflict
    time, advancing its own cycle to the wakeup point — which is
    exactly the event the machine scheduler's wakeup queue then
    re-arms.  Raised on every retrying access, so the message is
    formatted lazily.
    """

    def __init__(self, block: int, blockers: set[int]) -> None:
        Exception.__init__(self)
        self.block = block
        self.blockers = blockers

    def __str__(self) -> str:
        return f"stall on block {self.block} (held by {self.blockers})"


class TxnAborted(Exception):
    """The local transaction aborted; the core restarts it.

    ``reason`` is one of ``"conflict"`` (lost a contention-management
    decision), ``"constraint"`` (a RETCON commit-time constraint was
    violated), ``"capacity"`` (a bounded RETCON structure overflowed),
    or ``"dependence"`` (DATM cyclic dependence / cascading abort).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
