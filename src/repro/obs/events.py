"""The structured event stream underneath all tracing.

An :class:`EventStream` collects cycle-stamped :class:`TraceEvent`
records with bounded memory and *per-kind drop accounting*: a bounded
stream that had to discard events can always say exactly how many of
each kind it lost, so a truncated trace never silently under-reports
(``summary()`` surfaces the losses alongside the recorded counts).

Two bounding disciplines are supported:

* ``keep="first"`` — record the first *limit* events and drop the
  rest (the historical ``Tracer``/``--trace=N`` behavior: you see how
  a run starts);
* ``keep="last"`` — a ring buffer of the most recent *limit* events
  (you see how a run ends — the right choice for post-mortems of
  long runs).

The stream is JSON-round-trippable (:meth:`to_payload` /
:meth:`from_payload`) so the experiment engine can persist a traced
point's stream inside its cached result (``WorkloadResult.trace``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional


class TraceEvent:
    """One simulator event (slotted: a traced run builds ~50 k)."""

    __slots__ = ("kind", "core", "detail")

    def __init__(self, kind: str, core: int, detail: dict) -> None:
        #: begin commit abort conflict stall steal repair forward fallback
        self.kind = kind
        self.core = core
        #: event-specific payload (cycle, reason, block, address, ...)
        self.detail = detail

    def __eq__(self, other) -> bool:
        return type(other) is TraceEvent and (
            self.kind, self.core, self.detail
        ) == (other.kind, other.core, other.detail)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[core {self.core}] {self.kind} {extra}".rstrip()

    @property
    def cycle(self) -> Optional[int]:
        """The machine-clock stamp, when the emitter had one."""
        return self.detail.get("cycle")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "core": self.core,
                "detail": dict(self.detail)}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(data["kind"], data["core"], dict(data.get("detail", ())))


#: on-disk schema of :meth:`EventStream.to_payload` payloads
PAYLOAD_SCHEMA = 1


class EventStream:
    """Bounded collector of :class:`TraceEvent` with drop accounting."""

    def __init__(
        self, limit: Optional[int] = None, keep: str = "first"
    ) -> None:
        if keep not in ("first", "last"):
            raise ValueError(f"keep must be 'first' or 'last', not {keep!r}")
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        self.limit = limit
        self.keep = keep
        self.events: deque[TraceEvent] = deque()
        #: events discarded because of the bound, counted per kind
        self.dropped_by_kind: dict[str, int] = {}

    # -- collection --------------------------------------------------------
    def emit(self, kind: str, core: int, **detail) -> None:
        self.record(kind, core, detail)

    def record(self, kind: str, core: int, detail: dict) -> None:
        """Append one event, keeping *detail* itself as its payload
        (the simulator's path: no copy); the only bounding routine."""
        events = self.events
        if self.limit is not None and len(events) >= self.limit:
            drops = self.dropped_by_kind
            if self.keep == "first" or not events:
                drops[kind] = drops.get(kind, 0) + 1
                return
            evicted = events.popleft().kind
            drops[evicted] = drops.get(evicted, 0) + 1
        events.append(TraceEvent(kind, core, detail))

    @property
    def dropped(self) -> int:
        """Total events discarded (all kinds)."""
        return sum(self.dropped_by_kind.values())

    @property
    def total_emitted(self) -> int:
        """Events offered to the stream, recorded or not."""
        return len(self.events) + self.dropped

    # -- queries -----------------------------------------------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def summary(self) -> dict[str, int]:
        """Recorded events per kind — plus, for any kind the bound
        forced drops of, a ``"<kind>:dropped"`` entry, so a bounded
        trace can never pass for a complete one."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        for kind, dropped in self.dropped_by_kind.items():
            counts[f"{kind}:dropped"] = dropped
        return counts

    # -- persistence -------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe representation (a traced result's ``trace``)."""
        return {
            "schema": PAYLOAD_SCHEMA,
            "limit": self.limit,
            "keep": self.keep,
            "events": [e.to_dict() for e in self.events],
            "dropped_by_kind": dict(self.dropped_by_kind),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EventStream":
        stream = cls(
            limit=payload.get("limit"), keep=payload.get("keep", "first")
        )
        stream.events.extend(
            TraceEvent.from_dict(e) for e in payload.get("events", ())
        )
        stream.dropped_by_kind = dict(payload.get("dropped_by_kind", ()))
        return stream
