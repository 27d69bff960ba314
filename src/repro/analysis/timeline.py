"""ASCII execution timelines — the form of the paper's Figure 2.

Renders one lane per core from a
:class:`~repro.obs.events.EventStream`
whose events carry cycle timestamps (the Machine wires the system's
clock automatically).  Glyphs::

    B  transaction begin          A  abort
    C  commit                     S  tracked block stolen
    R  commit-time repair         F  value forwarded (DATM/hybrid)
"""

from __future__ import annotations

from repro.obs.events import EventStream

_GLYPHS = {
    "begin": "B",
    "commit": "C",
    "abort": "A",
    "steal": "S",
    "repair": "R",
    "forward": "F",
}


def render_timeline(
    tracer: EventStream, ncores: int, width: int = 72
) -> str:
    """Render the trace as per-core lanes scaled to *width* columns.

    Later events overwrite earlier ones that land on the same column;
    commits and aborts take precedence so the lane's story stays
    readable at coarse scales.  The lane count grows to cover every
    core id present in the trace, so a caller passing a stale *ncores*
    (or a trace from a wider machine) cannot index past the lanes.
    """
    stamped = [
        event
        for event in tracer
        if "cycle" in event.detail and event.kind in _GLYPHS
    ]
    if not stamped:
        return "(no timestamped events)"
    span = max(event.detail["cycle"] for event in stamped) or 1
    ncores = max(ncores, 1 + max(event.core for event in stamped))

    precedence = {"C": 3, "A": 3, "B": 2, "R": 1, "S": 1, "F": 1}
    lanes = [["."] * (width + 1) for _ in range(ncores)]
    for event in stamped:
        column = min(width, event.detail["cycle"] * width // span)
        glyph = _GLYPHS[event.kind]
        current = lanes[event.core][column]
        if current == "." or precedence[glyph] >= precedence.get(
            current, 0
        ):
            lanes[event.core][column] = glyph

    legend = "  ".join(
        f"{glyph}={kind}" for kind, glyph in _GLYPHS.items()
    )
    lines = [f"cycles 0..{span}   [{legend}]"]
    for core, lane in enumerate(lanes):
        if any(c != "." for c in lane):
            lines.append(f"core {core}: {''.join(lane)}")
    return "\n".join(lines)

