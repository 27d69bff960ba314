"""Derived views over the event stream.

Two renderings the paper's narrative leans on and raw event dumps
bury:

* the **contention heatmap** — which blocks the cores actually fight
  over (conflicts, stalls, steals, and the aborts they caused), the
  shape behind Figure 4/10's conflict fractions;
* the **abort attribution** breakdown — aborts counted by
  (reason x transaction label x block), the diagnosis view for "which
  transaction dies, why, and on what data".

Both accept anything iterable over :class:`TraceEvent` (a live
:class:`~repro.obs.events.EventStream`, a list decoded from a trace
payload, ...) and render deterministically: same events in, same
bytes out.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import TraceEvent

#: heatmap columns, in display order
_HEAT_KINDS = ("conflict", "stall", "steal", "abort")


def _block_of_event(event: TraceEvent):
    block = event.detail.get("block")
    if block is None or (isinstance(block, int) and block < 0):
        return None  # e.g. commit-order barrier stalls (block = -1)
    return block


def contention_counts(
    events: Iterable[TraceEvent],
) -> dict[int, dict[str, int]]:
    """Per-block counts of contention events, ``{block: {kind: n}}``."""
    counts: dict[int, dict[str, int]] = {}
    for event in events:
        if event.kind not in _HEAT_KINDS:
            continue
        block = _block_of_event(event)
        if block is None:
            continue
        row = counts.setdefault(block, dict.fromkeys(_HEAT_KINDS, 0))
        row[event.kind] += 1
    return counts


def contention_heatmap(
    events: Iterable[TraceEvent], top: int = 16, width: int = 32
) -> str:
    """ASCII heatmap of the *top* most contended blocks."""
    counts = contention_counts(events)
    if not counts:
        return "(no contention events)"
    ranked = sorted(
        counts.items(),
        key=lambda item: (-sum(item[1].values()), item[0]),
    )
    shown = ranked[:top]
    peak = max(sum(row.values()) for _block, row in shown)
    header = (
        f"{'block':>10s}  {'total':>6s}  "
        + "  ".join(f"{kind:>8s}" for kind in _HEAT_KINDS)
        + "  heat"
    )
    lines = [header, "-" * len(header)]
    for block, row in shown:
        total = sum(row.values())
        bar = "#" * max(1, round(total * width / peak))
        lines.append(
            f"{block:>10d}  {total:>6d}  "
            + "  ".join(f"{row[kind]:>8d}" for kind in _HEAT_KINDS)
            + f"  {bar}"
        )
    if len(ranked) > top:
        rest = sum(
            sum(row.values()) for _block, row in ranked[top:]
        )
        lines.append(
            f"(+{len(ranked) - top} more blocks, {rest} events)"
        )
    return "\n".join(lines)


def abort_attribution(
    events: Iterable[TraceEvent],
) -> dict[tuple[str, str, object], int]:
    """Abort counts keyed by ``(reason, txn label, block)``.

    ``block`` is the block whose conflict resolution doomed the
    transaction — or, for capacity aborts, the block whose admission
    overflowed the structure — when known, else ``"-"`` (constraint
    aborts, commit-order aborts, and traces predating block
    attribution).
    """
    counts: dict[tuple[str, str, object], int] = {}
    for event in events:
        if event.kind != "abort":
            continue
        reason = str(event.detail.get("reason", "unknown"))
        label = str(event.detail.get("label", "-"))
        block = _block_of_event(event)
        key = (reason, label, block if block is not None else "-")
        counts[key] = counts.get(key, 0) + 1
    return counts


def capacity_attribution(
    events: Iterable[TraceEvent],
) -> dict[tuple[str, str], int]:
    """Capacity-abort counts keyed by ``(structure, txn label)``.

    The structure name (``read_set``, ``write_set``, ``ssb``, ...)
    comes from the abort event's ``structure`` detail; events from
    traces predating structure attribution land under ``"-"``.  The
    workload x backend dimensions of the Kafousis-style attribution
    live one level up: each trace is a single (workload,
    backend) run, so callers key their aggregation by run.
    """
    counts: dict[tuple[str, str], int] = {}
    for event in events:
        if event.kind != "abort":
            continue
        if event.detail.get("reason") != "capacity":
            continue
        structure = str(event.detail.get("structure", "-"))
        label = str(event.detail.get("label", "-"))
        key = (structure, label)
        counts[key] = counts.get(key, 0) + 1
    return counts


def capacity_breakdown(events: Iterable[TraceEvent]) -> str:
    """ASCII table of :func:`capacity_attribution`, largest first."""
    counts = capacity_attribution(events)
    if not counts:
        return "(no capacity aborts)"
    header = f"{'aborts':>6s}  {'structure':<12s}  txn label"
    lines = [header, "-" * len(header)]
    ranked = sorted(
        counts.items(), key=lambda item: (-item[1], item[0])
    )
    for (structure, label), n in ranked:
        lines.append(f"{n:>6d}  {structure:<12s}  {label}")
    total = sum(counts.values())
    lines.append(f"{total:>6d}  total")
    return "\n".join(lines)


def abort_breakdown(events: Iterable[TraceEvent]) -> str:
    """ASCII table of :func:`abort_attribution`, most-aborted first."""
    counts = abort_attribution(events)
    if not counts:
        return "(no aborts)"
    header = f"{'aborts':>6s}  {'reason':<12s}  {'txn label':<16s}  block"
    lines = [header, "-" * len(header)]
    ranked = sorted(
        counts.items(), key=lambda item: (-item[1], item[0][:2],
                                          str(item[0][2]))
    )
    for (reason, label, block), n in ranked:
        lines.append(
            f"{n:>6d}  {reason:<12s}  {label:<16s}  {block}"
        )
    total = sum(counts.values())
    lines.append(f"{total:>6d}  total")
    return "\n".join(lines)
