"""The structured event stream underneath all tracing.

An :class:`EventStream` collects cycle-stamped events with bounded
memory and *per-kind drop accounting*: a bounded stream records the
first *limit* events (you see how a run starts) and counts every later
one per kind, so a truncated trace never silently under-reports
(``summary()`` surfaces the losses alongside the recorded counts).

Each recorded event is consecutive slots of one append-only list: kind,
core, the detail's key tuple (interned per stream), then its values —
about 60 B, a quarter of a :class:`TraceEvent` plus its own dict.  An
event object is built only when the stream is read.

The stream is JSON-round-trippable (:meth:`to_payload` /
:meth:`from_payload`) so the experiment engine can persist a traced
point's stream inside its cached result (``WorkloadResult.trace``).
"""

from __future__ import annotations

from typing import Iterator, Optional


class TraceEvent:
    """One simulator event, as read back from an :class:`EventStream`."""

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


#: on-disk schema of :meth:`EventStream.to_payload` payloads
PAYLOAD_SCHEMA = 1


class EventStream:
    """Bounded, append-only collector of events with drop accounting."""

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        self.limit = limit
        #: kind, core, keys (one tuple per shape), *values of each event
        self._slots: list = []
        self._shapes: dict[tuple, tuple] = {}
        self._count = 0
        #: events discarded because of the bound, counted per kind
        self.dropped_by_kind: dict[str, int] = {}

    # -- collection --------------------------------------------------------
    def emit(self, kind: str, core: int, **detail) -> None:
        self.record(kind, core, detail)

    def record(self, kind: str, core: int, detail: dict) -> None:
        """Append one event; the only bounding routine.  *detail*'s
        keys and values are captured now: the dict itself is not kept,
        so changing it afterwards does not change the recorded event."""
        if self._count == self.limit:
            drops = self.dropped_by_kind
            drops[kind] = drops.get(kind, 0) + 1
            return
        keys = tuple(detail)
        slots = self._slots
        slots.extend((kind, core, self._shapes.setdefault(keys, keys)))
        slots.extend(detail.values())
        self._count += 1

    @property
    def dropped(self) -> int:
        """Total events discarded (all kinds)."""
        return sum(self.dropped_by_kind.values())

    @property
    def total_emitted(self) -> int:
        """Events offered to the stream, recorded or not."""
        return self._count + self.dropped

    # -- queries -----------------------------------------------------------
    def _records(self) -> Iterator[tuple[str, int, tuple, int]]:
        """``(kind, core, keys, first value slot)`` of each event."""
        slots, i = self._slots, 0
        while i < len(slots):
            kind, core, keys = slots[i:i + 3]
            yield kind, core, keys, i + 3
            i += 3 + len(keys)

    def _detail(self, keys: tuple, start: int) -> dict:
        return dict(zip(keys, self._slots[start:start + len(keys)]))

    def __iter__(self) -> Iterator[TraceEvent]:
        for kind, core, keys, start in self._records():
            yield TraceEvent(kind, core, self._detail(keys, start))

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, built afresh (appending records nothing)."""
        return list(self)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [TraceEvent(kind, core, self._detail(keys, start))
                for k, core, keys, start in self._records() if k == kind]

    def __len__(self) -> int:
        return self._count

    def summary(self) -> dict[str, int]:
        """Recorded events per kind — plus, for any kind the bound
        forced drops of, a ``"<kind>:dropped"`` entry, so a bounded
        trace can never pass for a complete one."""
        counts: dict[str, int] = {}
        for kind, _core, _keys, _start in self._records():
            counts[kind] = counts.get(kind, 0) + 1
        for kind, dropped in self.dropped_by_kind.items():
            counts[f"{kind}:dropped"] = dropped
        return counts

    # -- persistence -------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe representation (a traced result's ``trace``);
        ``keep`` is always ``"first"``, as in every earlier payload."""
        return {
            "schema": PAYLOAD_SCHEMA,
            "limit": self.limit,
            "keep": "first",
            "events": [
                {"kind": kind, "core": core,
                 "detail": self._detail(keys, start)}
                for kind, core, keys, start in self._records()
            ],
            "dropped_by_kind": dict(self.dropped_by_kind),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EventStream":
        stream = cls(limit=payload.get("limit"))
        for event in payload.get("events", ()):
            stream.record(
                event["kind"], event["core"], event.get("detail", {})
            )
        stream.dropped_by_kind = dict(payload.get("dropped_by_kind", ()))
        return stream
