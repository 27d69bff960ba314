"""Data series for every table and figure in the paper's evaluation.

A figure is a :class:`Figure` record — which points to run, how to
reduce one finished point to a row, how to print the rows — and
:meth:`Figure.collect` is the one driver that runs any of them through
the experiment engine (:mod:`repro.exp`), which shares generated
workloads and sequential baselines across systems, optionally fans
points out over worker processes (``jobs``), and memoizes per-point
results on disk (``cache``).  ``FIGURES`` is the registry
``repro figure <name>`` looks records up in; the ``figureN``/``tableN``
functions return the same data as plain dicts for the benchmark
harness.

The sizes are controlled by ``scale`` (per-thread work multiplier) and
``ncores``; the defaults match the paper's 32-core configuration with
inputs scaled to finish in minutes of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from repro.analysis.report import (
    bar_chart,
    breakdown_chart,
    format_speedup_matrix,
    format_table,
)
from repro.exp.engine import iter_points
from repro.exp.spec import Point
from repro.sim.config import MachineConfig
from repro.sim.runner import WorkloadResult
from repro.workloads.registry import (
    ALL_VARIANTS,
    FIGURE1_WORKLOADS,
    TABLE3_WORKLOADS,
)
from repro.workloads.service import SERVICE_WORKLOADS

#: the three systems compared throughout the evaluation (Figures 9/10)
EVAL_SYSTEMS = ("eager", "lazy-vb", "retcon")

#: points paired with the path of their row in the collected data
Labelled = list[tuple[tuple[str, ...], Point]]


@dataclass(frozen=True)
class Figure:
    """One regenerable figure or table.

    ``points(base, **options)`` stamps workloads, systems, and any
    per-point machine overrides onto *base* (which carries ncores,
    seed, scale, config, check, skew, burst) and labels each point
    with the tuple path of its row; ``row(result, artifacts)`` reduces
    one finished point; ``finish``, if set, post-processes the nested
    ``{label[0]: {label[1]: ... row}}`` rows; ``render(data, ncores)``
    prints them.  ``header`` is the markdown preamble a ``-o`` file
    gets (a ``str.format`` template over the command line: cores,
    scale, seed, flags, output, backend, backends) and ``options``
    names the command-line arguments ``points`` accepts.
    """

    points: Callable[..., Labelled]
    row: Callable[[WorkloadResult, Mapping[str, dict]], object]
    render: Callable[[dict, int], str]
    header: str = ""
    options: tuple[str, ...] = ()
    finish: Optional[Callable[[dict], dict]] = None

    def collect(
        self,
        labelled: Labelled,
        matrix: Mapping[tuple[str, str], WorkloadResult] | None = None,
        jobs: int | None = 1,
        **engine_opts,
    ) -> dict:
        """Run *labelled* (from ``self.points``) and nest the rows.

        ``jobs=1`` (the default) keeps library calls serial and
        dependency-free; pass ``jobs=None`` to use every core (or
        ``$REPRO_JOBS``), as the CLI does.  A precomputed *matrix* of
        ``{(workload, system): result}`` replaces the run and restricts
        the rows to the pairs it holds.  A point that fails a
        correctness check fails the figure: workload invariants are
        evaluated on every run, the oracle and golden diff on
        ``check=True`` points.
        """
        if matrix is not None:
            labelled = [
                (label, point) for label, point in labelled
                if (point.workload, point.system) in matrix
            ]
            finished = (
                (point, matrix[point.workload, point.system], {})
                for _label, point in labelled
            )
        else:
            finished = iter_points(
                [point for _label, point in labelled], jobs=jobs,
                **engine_opts,
            )
        rows = {}
        for point, result, artifacts in finished:
            if not result.check_ok:
                raise AssertionError(
                    f"{point.workload}/{point.system}: correctness "
                    "checks failed: "
                    f"{result.failed_invariants() or result.oracle_violations}"
                )
            rows[point] = self.row(result, artifacts)
        data: dict = {}
        for label, point in labelled:
            node = data
            for key in label[:-1]:
                node = node.setdefault(key, {})
            node[label[-1]] = rows[point]
        return self.finish(data) if self.finish else data

    def series(
        self,
        ncores: int = 32,
        seed: int = 1,
        scale: float = 1.0,
        config: MachineConfig | None = None,
        workloads: Sequence[str] | None = None,
        **engine_opts,
    ) -> dict:
        """The figure's data as a plain dict: what the module-level
        ``figureN``/``tableN`` functions are bound to."""
        options = {} if workloads is None else {"workloads": workloads}
        base = Point("", "", ncores, seed, scale, config)
        return self.collect(self.points(base, **options), **engine_opts)


def _grid(workloads: Sequence[str], systems: Sequence[str]):
    """Point builder for a workloads x systems grid, labelled
    ``(workload, system)`` — or ``(workload,)`` for a single system."""

    def points(base: Point, workloads: Sequence[str] = workloads):
        return [
            (
                (name, system) if len(systems) > 1 else (name,),
                replace(base, workload=name, system=system),
            )
            for name in workloads
            for system in systems
        ]

    return points


def _markdown(
    corner: str, data: Mapping[str, Mapping[str, Mapping[str, str]]],
    _ncores=None,
) -> str:
    """Render ``{workload: {label: {column: cell}}}``: one markdown
    table per workload, a row per label, a column per key any of its
    rows has (``—`` where a row lacks it)."""
    lines: list[str] = []
    for name, rows in data.items():
        columns = list(
            dict.fromkeys(c for cells in rows.values() for c in cells)
        )
        lines += [
            f"### {name}",
            "",
            "| " + " | ".join((corner, *columns)) + " |",
            "|---" * (len(columns) + 1) + "|",
        ]
        lines += [
            "| "
            + " | ".join((label, *(cells.get(c, "—") for c in columns)))
            + " |"
            for label, cells in rows.items()
        ]
        lines.append("")
    return "\n".join(lines)


def _bars(title: str):
    return lambda data, ncores: bar_chart(
        data, max_value=ncores, title=title
    )


def _speedup(result: WorkloadResult, _artifacts) -> float:
    return result.speedup


# ---------------------------------------------------------------------------
# Figure 2: the qualitative comparison on the double-increment counter
# ---------------------------------------------------------------------------
@dataclass
class Figure2Point:
    system: str
    cycles: int
    commits: int
    aborts: int
    stall_events: int


FIGURE2_SYSTEMS = ("retcon", "datm", "eager-abort", "eager-stall", "lazy")
FIGURE2_COUNTER = 4096


def figure2_machine(
    system: str, txns_per_core: int, increments: int, tracer=None
):
    """Two cores repeatedly double-incrementing a shared counter: the
    machine (not yet run) and its memory."""
    from repro.isa.program import Assembler
    from repro.isa.registers import R1
    from repro.mem.memory import MainMemory
    from repro.sim.machine import Machine
    from repro.sim.script import ThreadScript

    memory = MainMemory()
    scripts = []
    for _core in range(2):
        script = ThreadScript()
        for _ in range(txns_per_core):
            asm = Assembler()
            for _ in range(increments):
                asm.load(R1, FIGURE2_COUNTER)
                asm.addi(R1, R1, 1)
                asm.store(R1, FIGURE2_COUNTER)
                asm.nop(5)
            script.add_txn(asm.build(), label="counter")
            script.add_work(3)
        scripts.append(script)
    machine = Machine(
        MachineConfig(ncores=2), system, scripts, memory, tracer=tracer
    )
    return machine, memory


def figure2(
    txns_per_core: int = 4, increments: int = 2
) -> dict[str, Figure2Point]:
    results = {}
    for system in FIGURE2_SYSTEMS:
        machine, memory = figure2_machine(
            system, txns_per_core, increments
        )
        run = machine.run()
        expected = 2 * txns_per_core * increments
        actual = memory.read(FIGURE2_COUNTER)
        if actual != expected:
            raise AssertionError(
                f"{system}: counter {actual} != {expected}"
            )
        results[system] = Figure2Point(
            system=system,
            cycles=run.cycles,
            commits=run.commits,
            aborts=run.aborts,
            stall_events=sum(
                c.stall_events for c in run.stats.cores
            ),
        )
    return results


def _render_figure2(_data, _ncores) -> str:
    from repro.analysis.timeline import figure2_timelines

    parts = [
        format_table(
            ["system", "cycles", "commits", "aborts", "stalls"],
            [(p.system, p.cycles, p.commits, p.aborts, p.stall_events)
             for p in figure2().values()],
        )
    ]
    for system, timeline in figure2_timelines().items():
        parts.append(f"\n--- {system} ---\n{timeline}")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Figure 10: breakdowns plus runtimes normalized to the eager configuration
# ---------------------------------------------------------------------------
def _normalize_to_eager(data: dict) -> dict:
    for systems in data.values():
        eager_cycles = systems["eager"]["cycles"] or 1
        for row in systems.values():
            row["normalized_runtime"] = row.pop("cycles") / eager_cycles
    return data


def _render_figure10(data: dict, _ncores) -> str:
    flat, scales = {}, {}
    for name, systems in data.items():
        for system, payload in systems.items():
            label = f"{name}/{system}"
            flat[label] = payload["breakdown"]
            scales[label] = min(payload["normalized_runtime"], 1.5)
    return breakdown_chart(
        flat, scales=scales,
        title="Figure 10: breakdown normalized to eager",
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def table1(config: MachineConfig | None = None) -> list[tuple[str, str]]:
    return (config or MachineConfig()).rows()


def table2() -> list[tuple[str, str, str]]:
    from repro.workloads.registry import WORKLOADS

    return [
        (w.spec.name, w.spec.description, w.spec.parameters)
        for name, w in sorted(WORKLOADS.items())
    ]


def format_table3(data: Mapping[str, Mapping[str, object]], _ncores=None) -> str:
    rows = []
    for name, row in data.items():
        cells = [name]
        for column in (
            "blocks_lost", "blocks_tracked", "symbolic_registers",
            "private_stores", "constraint_addresses", "commit_cycles",
        ):
            avg, peak = row[column]
            cells.append(f"{avg:.1f} ({peak:.0f})")
        cells.append(f"{row['commit_stall_percent']:.1f}")
        rows.append(cells)
    return format_table(
        ["workload", "lost", "tracked", "sym regs", "priv stores",
         "constr addrs", "commit cyc", "stall %"],
        rows,
    )


# ---------------------------------------------------------------------------
# Hybrid TM: instrumentation overhead vs. concurrency lost (HyTM tradeoff)
# ---------------------------------------------------------------------------
HYBRID_WORKLOADS = ("python_opt", "genome-sz", "kmeans")
HYBRID_BUDGETS = (0, 1, 2, 4, 8)


def _hybrid_points(
    base: Point,
    backend: str = "hybrid-retcon",
    workloads: Sequence[str] = HYBRID_WORKLOADS,
    budgets: Sequence[int] = HYBRID_BUDGETS,
) -> Labelled:
    """The headline HyTM tradeoff (after Brown & Ravi): sweeping the
    HTM retry budget trades software instrumentation overhead against
    concurrency lost to hardware/software synchronization.

    Runs *backend* at each retry budget, plus the pure hardware
    (``retcon``) and pure software (``stm``) endpoints; rows are
    labelled ``"htm"``, ``"rb=<n>"`` ... , ``"stm"``.
    """
    config = base.resolved_config()
    out: Labelled = []
    for name in workloads:
        at = replace(base, workload=name)
        out.append(((name, "htm"), replace(at, system="retcon")))
        for budget in budgets:
            swept = replace(config, retry_budget=budget)
            out.append(
                (
                    (name, f"rb={budget}"),
                    replace(at, system=backend, config=swept),
                )
            )
        out.append(((name, "stm"), replace(at, system="stm")))
    return out


def _hybrid_row(result: WorkloadResult, _artifacts) -> dict[str, str]:
    """Speedup over sequential, instrumentation instructions per
    commit, the STM fallback rate, aborts attributed to HTM/STM
    synchronization (subscription dooms and owner vetoes), aborts."""
    stm = result.stm
    barriers = stm.get("barrier_instrs", 0) / (result.commits or 1)
    return {
        "speedup": f"{result.speedup:.2f}x",
        "barrier instrs/commit": f"{barriers:.1f}",
        "fallback rate": f"{stm.get('fallback_rate', 0.0) * 100:.0f}%",
        "subscription aborts": str(int(stm.get("subscription_aborts", 0))),
        "total aborts": str(int(result.aborts)),
    }


# ---------------------------------------------------------------------------
# Capacity frontier: throughput vs. speculative-set size
# ---------------------------------------------------------------------------
CAPACITY_WORKLOADS = ("python_opt", "genome-sz", "kmeans")
#: read/write-set bounds in blocks; None is the unlimited endpoint
CAPACITY_STEPS: tuple[Optional[int], ...] = (1, 2, 4, 8, None)
CAPACITY_BACKENDS = ("eager", "retcon", "hybrid-retcon")


def _step_name(step: Optional[int]) -> str:
    return "unlimited" if step is None else str(step)


def _capacity_points(
    base: Point,
    workloads: Sequence[str] = CAPACITY_WORKLOADS,
    steps: Sequence[Optional[int]] = CAPACITY_STEPS,
    backends: Sequence[str] = CAPACITY_BACKENDS,
) -> Labelled:
    """The capacity frontier (after Kafousis's limited-set HTM study):
    throughput vs. speculative read/write-set size, per backend.

    Each backend runs with ``read_set_entries = write_set_entries =
    step`` for every step; the pure software endpoint (``stm``) runs
    once per workload since its sets live in software and no bound
    applies.  Where RETCON's curve flattens before the eager
    baseline's is where repair substitutes for buffer area; where the
    hybrid overtakes both is where escalation beats bigger buffers.

    Cells are labelled ``(workload, backend, "sets=<step>")`` with
    steps ``1``, ``2``, ... , ``unlimited``.
    """
    config = base.resolved_config()
    out: Labelled = []
    for name in workloads:
        at = replace(base, workload=name)
        for backend in backends:
            for step in steps:
                bounded = replace(
                    config, read_set_entries=step, write_set_entries=step
                )
                out.append(
                    (
                        (name, backend, f"sets={_step_name(step)}"),
                        replace(at, system=backend, config=bounded),
                    )
                )
        out.append(
            ((name, "stm", "sets=unlimited"), replace(at, system="stm"))
        )
    return out


def _capacity_cell(result: WorkloadResult, _artifacts) -> str:
    cell = f"{result.speedup:.2f}x"
    cap = result.aborts_by_reason.get("capacity", 0)
    if cap:
        cell += f" ({cap} cap)"
    fallback_rate = result.stm.get("fallback_rate", 0.0)
    if fallback_rate:
        cell += f" [{fallback_rate * 100:.0f}% stm]"
    return cell


# ---------------------------------------------------------------------------
# Service traffic: commit/repair/abort rates + tail latency per backend
# ---------------------------------------------------------------------------
SERVICE_BACKENDS = ("eager", "retcon", "hybrid-retcon")


def _service_points(
    base: Point,
    backends: Sequence[str] = SERVICE_BACKENDS,
    workloads: Sequence[str] = SERVICE_WORKLOADS,
) -> Labelled:
    """The service-traffic sweep: every service workload on every
    backend, as traced points so transaction-latency histograms and
    the repair counter ride along.  The base point's ``skew``/``burst``
    override the traffic model for every workload in the sweep
    (cache-key fields, so the overridden sweep memoizes separately).
    """
    return [
        (
            (name, backend),
            replace(base, workload=name, system=backend, obs="trace"),
        )
        for name in workloads
        for backend in backends
    ]


def _service_row(
    result: WorkloadResult, artifacts: Mapping[str, dict]
) -> dict[str, str]:
    """Speedup over sequential, commit count, abort rate, **repair
    rate** (commits that lost blocks and committed anyway via symbolic
    repair — RETCON's work product on the hot counters), STM fallback
    rate, and p50/p99 transaction latency in cycles from the
    ``txn.duration_cycles`` histogram."""
    metrics = artifacts["trace"].get("metrics", {})
    attempts = result.commits + result.aborts
    abort_rate = result.aborts / attempts if attempts else 0.0
    repaired = metrics.get("txn.repaired_commits", 0)
    latency = metrics.get("txn.duration_cycles", {}) or {}
    return {
        "speedup": f"{result.speedup:.2f}x",
        "commits": str(int(result.commits)),
        "abort rate": f"{abort_rate * 100:.0f}%",
        "repair rate": f"{repaired / (result.commits or 1) * 100:.0f}%",
        "stm fallback": f"{result.stm.get('fallback_rate', 0.0) * 100:.0f}%",
        "p50 (cyc)": str(int(latency.get("p50", 0))),
        "p99 (cyc)": str(int(latency.get("p99", 0))),
    }


# ---------------------------------------------------------------------------
# The registry behind ``repro figure <name>``
# ---------------------------------------------------------------------------
_REGENERATE = (
    "Regenerate with:\n\n    python -m repro figure {name} "
    "--cores {{cores}} --scale {{scale}}{seed}{{flags}} -o {{output}}\n\n"
)

FIGURES: dict[str, Figure] = {
    # scalability of the aggressive eager HTM on the 8 base workloads
    "1": Figure(
        points=_grid(FIGURE1_WORKLOADS, ("eager",)),
        row=_speedup,
        render=_bars("Figure 1: eager HTM scalability"),
    ),
    "2": Figure(
        points=lambda base: [], row=None, render=_render_figure2
    ),
    # eager baseline across all 14 variants
    "3": Figure(
        points=_grid(ALL_VARIANTS, ("eager",)),
        row=_speedup,
        render=_bars("Figure 3: before/after restructurings"),
    ),
    "4": Figure(
        points=_grid(ALL_VARIANTS, ("eager",)),
        row=lambda result, _artifacts: result.breakdown,
        render=lambda data, _ncores: breakdown_chart(
            data, title="Figure 4: time breakdown (eager)"
        ),
    ),
    # the full three-system comparison
    "9": Figure(
        points=_grid(ALL_VARIANTS, EVAL_SYSTEMS),
        row=_speedup,
        render=lambda data, _ncores: format_speedup_matrix(
            data, EVAL_SYSTEMS,
            title="Figure 9: speedup over sequential",
        ),
    ),
    "10": Figure(
        points=_grid(ALL_VARIANTS, EVAL_SYSTEMS),
        row=lambda result, _artifacts: {
            "breakdown": result.breakdown, "cycles": result.cycles
        },
        finish=_normalize_to_eager,
        render=_render_figure10,
    ),
    "hybrid": Figure(
        points=_hybrid_points,
        row=_hybrid_row,
        render=partial(_markdown, "point"),
        options=("backend",),
        header=(
            "# HyTM tradeoff: instrumentation overhead vs. "
            "concurrency\n\n"
            "Backend `{backend}` swept over HTM retry budgets "
            "(`rb=<n>`), bracketed by the pure-HTM (`htm` = retcon) "
            "and pure-STM (`stm`) endpoints at "
            "{cores} cores, scale {scale}, seed {seed}.  "
            + _REGENERATE.format(name="hybrid", seed="")
        ),
    ),
    "capacity": Figure(
        points=_capacity_points,
        row=_capacity_cell,
        render=partial(_markdown, "backend"),
        header=(
            "# Capacity frontier: speedup vs. speculative set size\n\n"
            "Read- and write-set bounds swept together over "
            f"{', '.join(map(_step_name, CAPACITY_STEPS))} blocks on "
            f"{', '.join(CAPACITY_BACKENDS)} (plus the pure-STM "
            "endpoint, which tracks sets in software) at "
            "{cores} cores, scale {scale}, seed {seed}.  "
            + _REGENERATE.format(name="capacity", seed="")
        ),
    ),
    "service": Figure(
        points=_service_points,
        row=_service_row,
        render=partial(_markdown, "backend"),
        options=("backends",),
        header=(
            "# Service traffic: commit, repair, and abort rates with "
            "tail latency\n\n"
            "The four production-traffic service workloads "
            "(Zipf-popular users, diurnal arrivals, hot shared "
            "counters) on {backends} at "
            "{cores} cores, scale {scale}, seed {seed}.  "
            "Repair rate = commits that lost blocks "
            "to a conflicting writer and still committed via "
            "symbolic repair; latency percentiles are "
            "power-of-two-bucket upper bounds from the "
            "`txn.duration_cycles` histogram.  "
            + _REGENERATE.format(name="service", seed=" --seed {seed}")
        ),
    ),
}

#: RETCON structure utilization (avg and max per transaction).
#: Includes ``bayes`` by default (the paper's Table 3 does), unless a
#: precomputed matrix restricts the rows.
TABLE3 = Figure(
    points=_grid(TABLE3_WORKLOADS, ("retcon",)),
    row=lambda result, _artifacts: {
        **result.table3,
        "commit_stall_percent": result.commit_stall_percent,
    },
    render=format_table3,
)

# The plain-dict series the benchmarks, tests, and EXPERIMENTS.md
# consume: ``figure9(ncores=8, scale=0.5, jobs=4)``,
# ``figure3(matrix=precomputed)``, ``table3(workloads=("bayes",))``.
figure1 = FIGURES["1"].series
figure3 = FIGURES["3"].series
figure4 = FIGURES["4"].series
figure9 = FIGURES["9"].series
figure10 = FIGURES["10"].series
table3 = TABLE3.series
