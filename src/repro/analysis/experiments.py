"""Generate EXPERIMENTS.md: every record's data against its claims.

Walks the registry (:data:`repro.analysis.figures.FIGURES`): every
record that carries claims gets a section — its title, its rendered
data, and a table judging each :class:`~repro.analysis.figures.Claim`
against what was measured: its verdict and the cells its predicate
read (:meth:`~repro.analysis.figures.Claim.judge`).  Invoked as::

    python -m repro experiments [--scale S] [--cores N] [-o FILE]
"""

from __future__ import annotations

from repro.analysis.figures import FIGURES, cell_text, collect
from repro.exp.spec import Point


def generate_report(
    ncores: int = 32, seed: int = 1, scale: float = 1.0, config=None,
    **engine_opts,
) -> str:
    """Run everything and render EXPERIMENTS.md's contents.

    ``config`` overrides the Table 1 machine for every point.  All
    sections share one engine pass (``engine_opts`` are
    :func:`~repro.analysis.figures.collect`'s), which memoizes
    per-point results: regenerating the report after analysis-only
    changes is nearly instant.
    """
    records = {name: rec for name, rec in FIGURES.items() if rec.claims}
    base = Point("", "", ncores, seed, scale, config)
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Configuration: {ncores} simulated cores, workload scale "
        f"{scale}, seed {seed}.  Regenerate with "
        f"`python -m repro experiments --cores {ncores} "
        f"--scale {scale} --seed {seed}` (results are cached under "
        "`.repro-cache/`; pass `--refresh` to force re-simulation).",
        "",
        "Absolute numbers are not comparable to the paper (this is a "
        "from-scratch simulator with scaled inputs); every check below "
        "is a *shape* claim taken from the paper's text.",
    ]
    for name, data in collect(records, base, **engine_opts).items():
        lines += [
            "",
            f"## {records[name].title}",
            "",
            "```",
            records[name].render(data, ncores),
            "```",
            "",
            "| shape claim | paper | measured | holds |",
            "|---|---|---|---|",
        ]
        for claim in records[name].claims:
            holds, cells = claim.judge(data, ncores)
            lines.append(
                f"| {claim.description} | {claim.paper} | {cell_text(cells)} | "
                f"{'yes' if holds else '**NO**'} |"
            )
    return "\n".join(lines) + "\n"
