"""Record every experiment and generate EXPERIMENTS.md.

Runs the complete evaluation (all figures and tables), compares each
measured result against the paper's reported shape, and renders a
markdown report.  Invoked as::

    python -m repro experiments [--scale S] [--cores N] [-o FILE]

The paper expectations encoded here are *qualitative*: who wins, by
roughly what factor, and where repair does not help.  Absolute cycle
counts cannot match the paper (different simulator, scaled inputs) and
are not asserted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.analysis import figures
from repro.analysis.report import (
    bar_chart,
    breakdown_chart,
    format_speedup_matrix,
    format_table,
)
from repro.exp.engine import run_matrix
from repro.workloads.registry import ALL_VARIANTS


@dataclass
class ShapeCheck:
    """One qualitative expectation from the paper."""

    description: str
    paper: str
    measured: str
    ok: bool


def _check(description, paper, measured, ok) -> ShapeCheck:
    return ShapeCheck(description, paper, measured, bool(ok))


def figure9_checks(matrix) -> list[ShapeCheck]:
    """The paper's §5.2 claims against the measured Figure 9 matrix."""

    def s(name, system):
        return matrix[name][system]

    checks = [
        _check(
            "python_opt transformed from no scaling to near-linear",
            "lazy-vb ~1x -> RETCON 30x",
            f"lazy-vb {s('python_opt', 'lazy-vb'):.1f}x -> "
            f"RETCON {s('python_opt', 'retcon'):.1f}x",
            s("python_opt", "lazy-vb") < 3
            and s("python_opt", "retcon") > 15,
        ),
        _check(
            "genome-sz: RETCON speedup over lazy-vb",
            "+66% (14.5x -> 24x)",
            f"+{100 * (s('genome-sz', 'retcon') / s('genome-sz', 'lazy-vb') - 1):.0f}% "
            f"({s('genome-sz', 'lazy-vb'):.1f}x -> "
            f"{s('genome-sz', 'retcon'):.1f}x)",
            s("genome-sz", "retcon") > 1.3 * s("genome-sz", "lazy-vb"),
        ),
        _check(
            "intruder_opt-sz: RETCON speedup over lazy-vb",
            "+211% (6x -> 21x)",
            f"+{100 * (s('intruder_opt-sz', 'retcon') / s('intruder_opt-sz', 'lazy-vb') - 1):.0f}%",
            s("intruder_opt-sz", "retcon")
            > 1.5 * s("intruder_opt-sz", "lazy-vb"),
        ),
        _check(
            "vacation_opt-sz: RETCON speedup over lazy-vb",
            "+26% (19x -> 24x)",
            f"+{100 * (s('vacation_opt-sz', 'retcon') / s('vacation_opt-sz', 'lazy-vb') - 1):.0f}%",
            s("vacation_opt-sz", "retcon")
            > 1.1 * s("vacation_opt-sz", "lazy-vb"),
        ),
        _check(
            "RETCON makes genome insensitive to the resizable table",
            "genome-sz ~= genome under RETCON",
            f"{s('genome-sz', 'retcon'):.1f}x vs "
            f"{s('genome', 'retcon'):.1f}x",
            s("genome-sz", "retcon") > 0.6 * s("genome", "retcon"),
        ),
        _check(
            "yada not helped by repair (§5.4)",
            "RETCON ~= lazy-vb, both low",
            f"retcon {s('yada', 'retcon'):.1f}x vs "
            f"lazy-vb {s('yada', 'lazy-vb'):.1f}x",
            s("yada", "retcon") < 8.0
            and s("yada", "retcon")
            < 1.6 * max(s("yada", "lazy-vb"), 1.0),
        ),
        _check(
            "python (unopt) not helped by repair (§5.4)",
            "~no scaling on all systems",
            f"retcon {s('python', 'retcon'):.1f}x",
            s("python", "retcon") < 2.5,
        ),
        _check(
            "intruder (unopt) not helped by repair (§5.4)",
            "~5x on all systems",
            f"retcon {s('intruder', 'retcon'):.1f}x vs "
            f"lazy-vb {s('intruder', 'lazy-vb'):.1f}x",
            s("intruder", "retcon") < 8.0
            and s("intruder", "retcon")
            < 1.6 * max(s("intruder", "lazy-vb"), 1.0),
        ),
        _check(
            "vacation gains from lazy-vb alone (silent/false sharing)",
            "lazy-vb >> eager on vacation variants only",
            f"vacation: eager {s('vacation', 'eager'):.1f}x, "
            f"lazy-vb {s('vacation', 'lazy-vb'):.1f}x",
            s("vacation", "lazy-vb") > 1.5 * s("vacation", "eager"),
        ),
    ]
    return checks


def figure3_checks(series) -> list[ShapeCheck]:
    return [
        _check(
            "restructuring rescues intruder",
            "5x -> >20x",
            f"{series['intruder']:.1f}x -> {series['intruder_opt']:.1f}x",
            series["intruder_opt"] > 4 * series["intruder"],
        ),
        _check(
            "restructuring rescues vacation",
            "15x -> >20x",
            f"{series['vacation']:.1f}x -> {series['vacation_opt']:.1f}x",
            series["vacation_opt"] > 1.5 * series["vacation"],
        ),
        _check(
            "resizable hashtable remains abort-bound on the baseline",
            "-sz variants stay low",
            f"intruder_opt-sz {series['intruder_opt-sz']:.1f}x, "
            f"genome-sz {series['genome-sz']:.1f}x",
            series["intruder_opt-sz"] < series["intruder_opt"] / 2
            and series["genome-sz"] < series["genome"],
        ),
    ]


def table3_checks(data) -> list[ShapeCheck]:
    worst_tracked = max(row["blocks_tracked"][1] for row in data.values())
    worst_stores = max(row["private_stores"][1] for row in data.values())
    worst_stall = max(
        row["commit_stall_percent"] for row in data.values()
    )
    top_losers = sorted(
        data, key=lambda n: data[n]["blocks_lost"][0], reverse=True
    )[:3]
    return [
        _check(
            "initial value buffer stays small",
            "<= 16 blocks tracked",
            f"max {worst_tracked:.0f}",
            worst_tracked <= 16,
        ),
        _check(
            "32-entry symbolic store buffer suffices",
            "max private stores ~34 (python)",
            f"max {worst_stores:.0f}",
            worst_stores <= 32,
        ),
        _check(
            "pre-commit repair is a small fraction of txn lifetime",
            "< 4% on all workloads (the paper's transactions are "
            "orders of magnitude longer; our scaled-down kernels "
            "inflate the ratio)",
            f"max {worst_stall:.1f}%",
            worst_stall < 35.0,
        ),
        _check(
            "python_opt is among the heaviest block-losers",
            "python/python_opt highest blocks-lost",
            f"top-3: {', '.join(top_losers)}",
            "python_opt" in top_losers or "python" in top_losers,
        ),
    ]


def generate_report(
    ncores: int = 32,
    seed: int = 1,
    scale: float = 1.0,
    config=None,
    jobs: int | None = 1,
    cache=None,
    refresh: bool = False,
    progress=None,
) -> str:
    """Run everything and render EXPERIMENTS.md's contents.

    ``config`` overrides the Table 1 machine for every point.

    ``jobs``/``cache``/``refresh``/``progress`` are forwarded to the
    experiment engine (see :mod:`repro.exp.engine`): the full run
    matrix fans out over worker processes and memoizes per-point
    results, so regenerating the report after analysis-only changes is
    nearly instant.
    """
    engine_opts = dict(
        config=config, jobs=jobs, cache=cache, refresh=refresh,
        progress=progress,
    )
    out = io.StringIO()

    def w(text=""):
        out.write(text + "\n")

    w("# EXPERIMENTS — paper vs. measured")
    w()
    w(
        f"Configuration: {ncores} simulated cores, workload scale "
        f"{scale}, seed {seed}.  Regenerate with "
        f"`python -m repro experiments --cores {ncores} "
        f"--scale {scale} --jobs 8` (results are cached under "
        f"`.repro-cache/`; pass `--refresh` to force re-simulation)."
    )
    w()
    w(
        "Absolute numbers are not comparable to the paper (this is a "
        "from-scratch simulator with scaled inputs); every check below "
        "is a *shape* claim taken from the paper's text."
    )

    # Table 1 / Table 2 -------------------------------------------------
    w()
    w("## Table 1 — machine configuration")
    w()
    w("```")
    w(format_table(["Parameter", "Value"], figures.table1(config)))
    w("```")
    w()
    w("## Table 2 — workloads")
    w()
    w("```")
    w(
        format_table(
            ["Workload", "Description", "Input"], figures.table2()
        )
    )
    w("```")

    # Figure 2 ----------------------------------------------------------
    w()
    w("## Figure 2 — counter comparison (2 cores, 2 increments)")
    w()
    points = figures.figure2(txns_per_core=6)
    w("```")
    w(
        format_table(
            ["system", "cycles", "commits", "aborts", "stalls"],
            [
                (p.system, p.cycles, p.commits, p.aborts, p.stall_events)
                for p in points.values()
            ],
        )
    )
    w("```")
    w()
    w(
        "Paper shape: RETCON repairs (no rollbacks), DATM aborts on the "
        "cyclic double increment, EagerTM aborts repeatedly, "
        "EagerTM-Stall stalls, LazyTM aborts at remote commits."
    )
    w(
        f"Measured: retcon {points['retcon'].aborts} aborts, datm "
        f"{points['datm'].aborts}, eager {points['eager-abort'].aborts}, "
        f"eager-stall {points['eager-stall'].aborts} aborts / "
        f"{points['eager-stall'].stall_events} stalls, lazy "
        f"{points['lazy'].aborts}."
    )

    # One shared run matrix backs Figures 3, 4, 9, 10 and Table 3.
    matrix = run_matrix(
        ALL_VARIANTS, figures.EVAL_SYSTEMS,
        ncores=ncores, seed=seed, scale=scale, **engine_opts,
    )

    # Figures 3/4 ---------------------------------------------------------
    w()
    w("## Figures 1 & 3 — eager-baseline scalability")
    w()
    series3 = figures.figure3(matrix=matrix)
    w("```")
    w(bar_chart(series3, max_value=ncores))
    w("```")
    w()
    _write_checks(w, figure3_checks(series3))

    w()
    w("## Figure 4 — eager-baseline time breakdown")
    w()
    breakdowns = figures.figure4(matrix=matrix)
    w("```")
    w(breakdown_chart(breakdowns))
    w("```")

    # Figures 9/10 + Table 3 -----------------------------------------------
    w()
    w("## Figure 9 — eager vs lazy-vb vs RETCON")
    w()
    matrix9 = figures.figure9(matrix=matrix)
    w("```")
    w(format_speedup_matrix(matrix9, figures.EVAL_SYSTEMS))
    w("```")
    w()
    _write_checks(w, figure9_checks(matrix9))

    w()
    w("## Figure 10 — breakdown normalized to eager")
    w()
    data10 = figures.figure10(matrix=matrix)
    rows = []
    for name, systems in data10.items():
        for system, payload in systems.items():
            rows.append(
                (
                    name,
                    system,
                    f"{payload['normalized_runtime']:.2f}",
                    f"{payload['breakdown']['busy']:.2f}",
                    f"{payload['breakdown']['conflict']:.2f}",
                    f"{payload['breakdown']['barrier']:.2f}",
                    f"{payload['breakdown']['other']:.2f}",
                )
            )
    w("```")
    w(
        format_table(
            ["workload", "system", "runtime/eager", "busy",
             "conflict", "barrier", "other"],
            rows,
        )
    )
    w("```")

    w()
    w("## Table 3 — RETCON structure utilization")
    w()
    # bayes appears in the paper's Table 3 (but not its figures, §3).
    bayes_row = figures.table3(
        ncores=ncores, seed=seed, scale=scale, workloads=("bayes",),
        **engine_opts,
    )
    data3 = {**bayes_row, **figures.table3(matrix=matrix)}
    w("```")
    w(figures.format_table3(data3))
    w("```")
    w()
    _write_checks(w, table3_checks(data3))

    return out.getvalue()


def _write_checks(w, checks: list[ShapeCheck]) -> None:
    w("| shape claim | paper | measured | holds |")
    w("|---|---|---|---|")
    for check in checks:
        mark = "yes" if check.ok else "**NO**"
        w(
            f"| {check.description} | {check.paper} | "
            f"{check.measured} | {mark} |"
        )
