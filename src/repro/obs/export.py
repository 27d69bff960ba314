"""Chrome-trace / Perfetto JSON export.

Converts a simulator event stream into the Trace Event Format JSON
that ``chrome://tracing`` and ``ui.perfetto.dev`` open natively:

* one **track per core** — pid 0 is the machine, tid *n* is core *n*
  (named via ``M``/``thread_name`` metadata events);
* every transaction **attempt is a duration event** (``ph="X"``) from
  its ``begin`` to the matching ``commit`` or ``abort``, named by the
  transaction's label and carrying the outcome (and abort reason) in
  ``args``;
* **repairs, steals, forwards, stalls, and conflicts are instants**
  (``ph="i"``, thread scope) at their cycle.

Cycles map 1:1 onto the format's microsecond ``ts`` axis, so Perfetto's
ruler reads directly in simulated cycles.  Truncation is honest: the
per-kind drop counts of a bounded stream are carried in ``otherData``
so a clipped trace is visibly clipped.

:func:`validate_chrome_trace` is the schema check used by the tests
and the CI trace-smoke step: it enforces the structural subset of the
format this exporter targets (and that the viewers require).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

from repro.obs.events import EventStream, TraceEvent

#: event kinds rendered as thread-scoped instants
INSTANT_KINDS = (
    "repair", "steal", "forward", "stall", "conflict", "fallback",
)

#: phases the validator accepts (the subset the exporter emits)
_VALID_PHASES = {"X", "i", "M"}


def _txn_name(event: TraceEvent) -> str:
    return str(event.detail.get("label", "txn"))


def chrome_trace(
    events: "EventStream | Iterable[TraceEvent]",
    label: str = "repro",
    dropped_by_kind: Optional[dict] = None,
) -> dict:
    """Build the Trace Event Format payload for *events*.

    *events* is anything iterable over :class:`TraceEvent` (an
    :class:`EventStream`, a list from a trace payload, ...).  When
    it is an :class:`EventStream` its drop accounting is embedded
    automatically; pass ``dropped_by_kind`` explicitly otherwise.
    """
    if isinstance(events, EventStream):
        dropped_by_kind = dict(events.dropped_by_kind)
    stamped: list[TraceEvent] = [
        e for e in events if "cycle" in e.detail
    ]
    max_cycle = max((e.detail["cycle"] for e in stamped), default=0)

    cores = sorted({e.core for e in stamped})
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro machine [{label}]"},
        }
    ]
    for core in cores:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
        )

    #: per-core currently-open transaction attempt (its begin event)
    open_begin: dict[int, TraceEvent] = {}
    spans: list[dict] = []
    instants: list[dict] = []

    def close_span(begin: TraceEvent, end_cycle: int, outcome: str,
                   end_detail: Optional[dict] = None) -> None:
        args = {
            k: v for k, v in begin.detail.items() if k != "cycle"
        }
        args["outcome"] = outcome
        if end_detail:
            args.update(
                {k: v for k, v in end_detail.items()
                 if k not in ("cycle", "label")}
            )
        spans.append(
            {
                "name": _txn_name(begin),
                "cat": "txn",
                "ph": "X",
                "ts": begin.detail["cycle"],
                "dur": max(0, end_cycle - begin.detail["cycle"]),
                "pid": 0,
                "tid": begin.core,
                "args": args,
            }
        )

    for event in stamped:
        kind = event.kind
        if kind == "begin":
            # A begin while an attempt is open means its end event was
            # dropped by the bound; close the stale span honestly.
            stale = open_begin.pop(event.core, None)
            if stale is not None:
                close_span(stale, event.detail["cycle"], "truncated")
            open_begin[event.core] = event
        elif kind in ("commit", "abort"):
            begin = open_begin.pop(event.core, None)
            if begin is None:
                continue  # begin fell outside the bounded window
            close_span(begin, event.detail["cycle"], kind, event.detail)
        elif kind in INSTANT_KINDS:
            instants.append(
                {
                    "name": kind,
                    "cat": kind,
                    "ph": "i",
                    "ts": event.detail["cycle"],
                    "pid": 0,
                    "tid": event.core,
                    "s": "t",
                    "args": {
                        k: v for k, v in event.detail.items()
                        if k != "cycle"
                    },
                }
            )
    for begin in open_begin.values():
        close_span(begin, max_cycle, "truncated")

    # Deterministic order: metadata first, then time-sorted payload.
    payload_events = sorted(
        spans + instants,
        key=lambda e: (e["ts"], e["tid"], e["ph"], e["name"]),
    )
    trace_events.extend(payload_events)
    other: dict = {"tool": "repro trace export", "label": label,
                   "max_cycle": max_cycle}
    if dropped_by_kind:
        other["dropped_by_kind"] = {
            k: dropped_by_kind[k] for k in sorted(dropped_by_kind)
        }
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def validate_chrome_trace(payload: dict) -> None:
    """Raise ``ValueError`` unless *payload* is a structurally valid
    Chrome trace of the subset this exporter emits."""

    def fail(message: str, index: Optional[int] = None) -> None:
        where = "" if index is None else f" (traceEvents[{index}])"
        raise ValueError(f"invalid chrome trace{where}: {message}")

    if not isinstance(payload, dict):
        fail("top level must be an object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        fail("'traceEvents' must be a list")
    unit = payload.get("displayTimeUnit", "ms")
    if unit not in ("ms", "ns"):
        fail(f"displayTimeUnit must be 'ms' or 'ns', not {unit!r}")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail("event must be an object", i)
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            fail(f"unsupported phase {phase!r}", i)
        if not isinstance(event.get("name"), str) or not event["name"]:
            fail("missing event name", i)
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(f"missing integer {key!r}", i)
        if "args" in event and not isinstance(event["args"], dict):
            fail("'args' must be an object", i)
        if phase == "M":
            if event["name"] not in ("process_name", "thread_name"):
                fail(f"unknown metadata record {event['name']!r}", i)
            if not isinstance(event.get("args", {}).get("name"), str):
                fail("metadata record needs args.name", i)
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"bad timestamp {ts!r}", i)
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"complete event needs non-negative dur, got {dur!r}", i)
        if phase == "i" and event.get("s", "t") not in ("t", "p", "g"):
            fail(f"bad instant scope {event.get('s')!r}", i)


def write_chrome_trace(path: "str | Path", payload: dict) -> Path:
    """Validate and write *payload* as deterministic, stable JSON."""
    validate_chrome_trace(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return path
