"""Command-line interface.

Examples::

    python -m repro list
    python -m repro run genome-sz --system retcon --cores 16
    python -m repro compare python_opt --cores 32 --scale 0.5
    python -m repro figure 9 --scale 0.3 --jobs 4
    python -m repro table 3
    python -m repro experiments --scale 1.0 --jobs 8
    python -m repro sweep python_opt --jobs 4
    python -m repro sweep --smoke --jobs 2
    python -m repro run python_opt --check --trace=50
    python -m repro trace export figure2 --system retcon
    python -m repro trace export python_opt --cores 8 --scale 0.2
    python -m repro timeline python_opt --cores 4 --scale 0.1
    python -m repro metrics python_opt --cores 4 --scale 0.1
    python -m repro check --smoke --jobs 2
    python -m repro figure capacity --ivb 8 -o capacity_ivb8.md
    python -m repro fuzz --smoke --jobs 2
    python -m repro fuzz --minutes 10 --backends eager lazy-vb retcon datm

Simulation commands accept ``--jobs N`` (default ``$REPRO_JOBS`` or
all cores) to fan independent points out over worker processes, and
memoize per-point results under ``.repro-cache/`` — use ``--no-cache``
to bypass the cache or ``--refresh`` to re-simulate and overwrite it.
``repro fuzz`` never touches that cache: it appends each verdict to
its corpus under ``.repro-fuzz/`` as it is reached, so running the
same fuzz command again resumes it.

How flags become simulations: the machine flags (``--retry-budget``,
``--read-set``, ...) are one table, ``_CONFIG_FLAGS``, keyed by
``MachineConfig`` field; ``_point_from_args`` is the one place a
command line becomes a :class:`~repro.exp.Point` (machine flags as
``Point.config``, ``--skew``/``--burst`` as its traffic fields), and
every subcommand that registers those flags builds its points through
it.  ``figure``, ``table``, ``compare``, ``sweep`` and ``sweep
--smoke`` are one driver, ``_show``, over the record the command line
names in :mod:`repro.analysis.figures`; ``experiments`` walks the same
registry.  A point that fails a correctness check fails any of them
the same way: its label on stderr, exit 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.analysis import figures as fig
from repro.analysis.report import format_table
from repro.exp import Point, ResultCache, run_points, stderr_progress
from repro.exp.engine import run_point_with_trace
from repro.htm.backends import BACKENDS
from repro.sim.config import MachineConfig
from repro.sim.runner import _resolve_workload
from repro.workloads.registry import ALL_VARIANTS, WORKLOADS


class UsageError(Exception):
    """A flag combination the command cannot honour: main() prints the
    message to stderr and exits 2 instead of running anything."""


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS or all cores)",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    _add_jobs_arg(parser)
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results but store fresh ones",
    )


def _engine_opts(args) -> dict:
    return dict(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
        refresh=args.refresh,
        progress=stderr_progress,
    )


def _csv(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _entries(value: str):
    """Parse a capacity flag: an entry count, or 'unlimited' (None)."""
    if value == "unlimited":
        return None
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an entry count or 'unlimited', got {value!r}"
        )
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"capacity must be >= 1 (use 'unlimited' to unbound): {n}"
        )
    return n


#: the machine-override flags, keyed by MachineConfig field name:
#: (flag, parser, metavar, help).  Every subcommand that takes machine
#: flags registers and reads them through this table, so a new swept
#: knob is a MachineConfig field plus one row here.
_CONFIG_FLAGS = {
    "retry_budget": (
        "--retry-budget", int, "N",
        "HTM attempts before a hybrid backend escalates to STM",
    ),
    "read_set_entries": (
        "--read-set", _entries, "N|unlimited",
        "bound the speculative read-set blocks",
    ),
    "write_set_entries": (
        "--write-set", _entries, "N|unlimited",
        "bound the speculative write-set blocks",
    ),
    "ivb_entries": (
        "--ivb", _entries, "N|unlimited",
        "bound the initial value buffer entries",
    ),
    "constraint_entries": (
        "--constraint-buffer", _entries, "N|unlimited",
        "bound the constraint buffer entries",
    ),
    "ssb_entries": (
        "--ssb", _entries, "N|unlimited",
        "bound the symbolic store buffer entries",
    ),
}


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    for field, (flag, parse, metavar, what) in _CONFIG_FLAGS.items():
        # SUPPRESS: an absent flag leaves no attribute, which keeps
        # "--ivb unlimited" (None) distinct from "not given".
        parser.add_argument(
            flag, dest=field, type=parse, metavar=metavar,
            default=argparse.SUPPRESS,
            help=f"{what} (default: the machine config's value)",
        )


def _config_from_args(args) -> MachineConfig | None:
    """The machine flags as a Point.config (None when none given)."""
    given = {
        field: getattr(args, field)
        for field in _CONFIG_FLAGS if hasattr(args, field)
    }
    return replace(MachineConfig(), **given) if given else None


def _add_traffic_args(parser: argparse.ArgumentParser) -> None:
    from repro.workloads.service.traffic import ARRIVAL_PROFILES

    parser.add_argument(
        "--skew", type=float, default=None, metavar="S",
        help="Zipf popularity exponent for the service workloads "
             "(default: the workload's traffic spec)",
    )
    parser.add_argument(
        "--burst", default=None, choices=sorted(ARRIVAL_PROFILES),
        help="arrival profile for the service workloads "
             "(default: the workload's traffic spec)",
    )


def _known_backends(names) -> None:
    """An unknown TM system is a usage error naming the known ones."""
    unknown = [name for name in names if name not in BACKENDS]
    if unknown:
        raise UsageError(
            f"unknown TM system {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(BACKENDS)}"
        )


def _check_points(points) -> None:
    """An unknown system, or --skew/--burst on a workload with no
    traffic model, is a usage error up front — before any workload is
    generated — not a traceback from the middle of the run."""
    for point in points:
        if point.system:  # "" marks a template, stamped later
            _known_backends([point.system])
        try:
            _resolve_workload(point.workload, point.skew, point.burst)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _point_from_args(args, **extra) -> Point:
    """The one place command-line flags become a :class:`Point`.

    Subcommands without a flag (``sweep`` has no ``--cores``, ``table``
    no workload, ``compare`` no single system) leave the field at a
    placeholder and stamp it via *extra* or ``dataclasses.replace``;
    a point built without a workload is such a template, and its users
    pass the points they stamp from it through :func:`_check_points`.
    """
    fields = dict(
        workload=getattr(args, "workload", None) or "",
        system=getattr(args, "system", ""),
        ncores=getattr(args, "cores", 0),
        seed=args.seed,
        scale=args.scale,
        config=_config_from_args(args),
        check=getattr(args, "check", False),
        skew=getattr(args, "skew", None),
        burst=getattr(args, "burst", None),
    )
    point = Point(**{**fields, **extra})
    if point.workload:
        _check_points([point])
    return point


def _flags_given(args) -> str:
    """The machine/traffic flags of this command line, as typed (for
    the 'Regenerate with' line of a figure's markdown header)."""
    flags = ""
    for field, (flag, *_rest) in _CONFIG_FLAGS.items():
        if hasattr(args, field):
            value = getattr(args, field)
            flags += f" {flag} {'unlimited' if value is None else value}"
    for name in ("skew", "burst"):
        if getattr(args, name, None) is not None:
            flags += f" --{name} {getattr(args, name)}"
    return flags


def _add_run_args(
    parser: argparse.ArgumentParser, traffic: bool = True
) -> None:
    parser.add_argument("--cores", type=int, default=32)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    _add_config_args(parser)
    if traffic:
        _add_traffic_args(parser)
    _add_engine_args(parser)


def _cmd_list(_args) -> int:
    print("Workloads (Table 2):")
    for name in ALL_VARIANTS:
        print(f"  {name:18s} {WORKLOADS[name].spec.description}")
    print("\nTM systems: " + ", ".join(BACKENDS))
    from repro.workloads.service import SERVICE_WORKLOADS

    print("\nService workloads (repro figure service):")
    for name in SERVICE_WORKLOADS:
        print(f"  {name:18s} {WORKLOADS[name].spec.description}")
    from repro.fuzz.gen import FUZZ_PROFILES

    print(
        "\nFuzz profiles (repro fuzz, also runnable as workloads): "
        + ", ".join(FUZZ_PROFILES)
    )
    return 0


def _print_result(result) -> None:
    print(f"workload:  {result.workload}")
    print(f"system:    {result.system}")
    print(f"cores:     {result.ncores}")
    print(f"cycles:    {result.cycles} (sequential: {result.seq_cycles})")
    print(f"speedup:   {result.speedup:.2f}x")
    print(f"commits:   {result.commits}")
    print(f"aborts:    {result.aborts} {result.aborts_by_reason}")
    breakdown = ", ".join(
        f"{k}={v:.1%}" for k, v in result.breakdown.items()
    )
    print(f"breakdown: {breakdown}")
    if result.commit_stall_percent:
        print(f"pre-commit repair: {result.commit_stall_percent:.1f}% "
              "of txn lifetime")
    if len(result.by_label) > 1:
        for label, (commits, aborts) in sorted(result.by_label.items()):
            print(f"  txn[{label}]: {commits} commits, "
                  f"{aborts} aborted attempts")
    for inv in result.invariants:
        status = "ok" if inv.ok else "FAILED"
        print(f"invariant [{inv.name}]: {status} — {inv.detail}")
    if result.oracle_checked:
        status = "ok" if result.oracle_ok else "FAILED"
        print(f"oracle: {status} — {result.oracle_commits} commits "
              f"replayed, {len(result.oracle_violations)} violations")
        for violation in result.oracle_violations[:10]:
            print(f"  [{violation['kind']}] core {violation['core']} "
                  f"txn={violation['txn_label']} {violation['detail']}")
    if result.golden is not None:
        status = "ok" if result.golden_ok else "FAILED"
        print(f"golden diff: {status} — "
              f"{result.golden['blocks_differing']}/"
              f"{result.golden['blocks_compared']} blocks differ "
              f"({result.golden['bytes_differing']} bytes); "
              f"golden failures={result.golden['golden_failures']} "
              f"parallel failures={result.golden['parallel_failures']}")


def _cmd_run(args) -> int:
    point = _point_from_args(args)
    if args.trace is not None:
        return _run_traced(args, point)
    result = run_points([point], **_engine_opts(args))[point]
    _print_result(result)
    return 0 if result.check_ok else 1


def _run_traced(args, point: Point) -> int:
    """``repro run --trace[=N]``: simulate with an event stream attached.

    A traced run is a distinct cache point (``obs="trace"``) whose
    event payload is persisted as an artifact next to the result, so a
    warm cache replays the recorded trace instead of re-simulating —
    and an untraced cache entry can never satisfy a trace request with
    an empty trace.
    """
    from repro.obs.events import EventStream

    result, events, _metrics = run_point_with_trace(
        point, **_engine_opts(args)
    )
    # Re-bound for display: --trace=N keeps the first N events, with
    # per-kind drop accounting for everything beyond the bound.
    tracer = EventStream(limit=args.trace if args.trace > 0 else None)
    for event in events:
        tracer.emit(event.kind, event.core, **event.detail)
    for kind, count in events.dropped_by_kind.items():
        tracer.dropped_by_kind[kind] = (
            tracer.dropped_by_kind.get(kind, 0) + count
        )
    _print_result(result)
    summary = ", ".join(
        f"{kind}={count}" for kind, count in sorted(tracer.summary().items())
    )
    print(f"\ntrace: {len(tracer.events)} events ({summary})"
          + (f", {tracer.dropped} dropped" if tracer.dropped else ""))
    for event in tracer.events:
        print(f"  {event}")
    return 0 if result.check_ok else 1


def _trace_source(args):
    """Obtain ``(label, events, metrics)`` for the trace commands.

    The pseudo-workload ``figure2`` runs the paper's two-core counter
    scenario directly; everything else goes through the experiment
    engine (and its trace-artifact cache).
    """
    if args.workload == "figure2":
        from repro.analysis.timeline import figure2_tracer

        _known_backends([args.system])
        return (
            f"figure2/{args.system}",
            figure2_tracer(args.system),
            {},
        )
    _result, events, metrics = run_point_with_trace(
        _point_from_args(args), **_engine_opts(args)
    )
    return f"{args.workload}/{args.system}", events, metrics


def _cmd_trace(args) -> int:
    """``repro trace export``: write a Perfetto-openable JSON trace."""
    from repro.obs.export import chrome_trace, write_chrome_trace

    label, events, _metrics = _trace_source(args)
    payload = chrome_trace(events, label=label)
    out = args.output or f"trace_{label.replace('/', '_')}.json"
    path = write_chrome_trace(out, payload)
    spans = sum(
        1 for e in payload["traceEvents"] if e.get("ph") == "X"
    )
    instants = sum(
        1 for e in payload["traceEvents"] if e.get("ph") == "i"
    )
    print(
        f"wrote {path}: {len(payload['traceEvents'])} trace events "
        f"({spans} txn spans, {instants} instants) — open in "
        "ui.perfetto.dev"
    )
    dropped = events.dropped_by_kind
    if dropped:
        drops = ", ".join(
            f"{kind}={count}" for kind, count in sorted(dropped.items())
        )
        print(f"note: bounded stream dropped events ({drops})")
    return 0


def _cmd_timeline(args) -> int:
    """``repro timeline``: ASCII timeline + contention/abort views."""
    from repro.analysis.timeline import render_timeline
    from repro.obs.views import (
        abort_breakdown,
        capacity_breakdown,
        contention_heatmap,
    )

    label, events, _metrics = _trace_source(args)
    ncores = 2 if args.workload == "figure2" else args.cores
    print(f"--- {label} ---")
    print(render_timeline(events, ncores=ncores, width=args.width))
    print(f"\ncontention by block ({label}):")
    print(contention_heatmap(events))
    print(f"\nabort attribution ({label}):")
    print(abort_breakdown(events))
    print(f"\ncapacity aborts by structure ({label}):")
    print(capacity_breakdown(events))
    return 0


def _cmd_metrics(args) -> int:
    """``repro metrics``: run one point and print its registry."""
    from repro.obs.metrics import render_snapshot

    label, _events, metrics = _trace_source(args)
    print(f"--- {label} ---")
    print(render_snapshot(metrics))
    return 0


def _cmd_check(args) -> int:
    """``repro check``: oracle matrix + fault-injection self-test."""
    from repro.check.matrix import check_spec, run_fault_matrix

    start = time.perf_counter()
    results = run_points(check_spec(smoke=args.smoke), **_engine_opts(args))
    rows = []
    matrix_ok = True
    for point, result in results.items():
        matrix_ok = matrix_ok and result.check_ok
        golden = "-"
        if result.golden is not None:
            golden = ("ok" if result.golden_ok
                      else f"{result.golden['bytes_differing']}B differ")
        rows.append(
            (
                point.workload,
                point.system,
                result.commits,
                (f"{len(result.oracle_violations)} violations"
                 if result.oracle_checked and not result.oracle_ok
                 else ("ok" if result.oracle_checked else "-")),
                golden,
                "ok" if result.invariants_ok else "FAILED",
            )
        )
    elapsed = time.perf_counter() - start
    name = "check-smoke" if args.smoke else "check"
    print(f"oracle matrix [{name}]: {len(results)} points "
          f"in {elapsed:.1f}s")
    print(
        format_table(
            ["workload", "system", "commits", "oracle", "golden",
             "invariants"],
            rows,
        )
    )

    if args.no_faults:
        print(f"\noracle matrix: {'PASS' if matrix_ok else 'FAIL'} "
              "(fault matrix skipped)")
        return 0 if matrix_ok else 1

    print("\nfault matrix (control + every fault point per row, "
          "contended scenario):")
    start = time.perf_counter()
    trials = run_fault_matrix()
    elapsed = time.perf_counter() - start
    faults_ok = True
    rows = []
    for trial in trials:
        faults_ok = faults_ok and trial.caught
        kinds = ",".join(sorted(trial.kinds)) or "-"
        rows.append(
            (
                trial.fault or "(control)",
                trial.system,
                trial.stage,
                trial.fires,
                trial.checked_commits,
                trial.violations,
                kinds,
                "ok" if trial.caught else "MISSED",
            )
        )
    print(format_table(
        ["fault", "system", "stage", "fires", "commits", "violations",
         "kinds", "verdict"],
        rows,
    ))
    injected = sum(1 for t in trials if t.fault is not None)
    print(f"fault matrix: {injected} faults in {elapsed:.1f}s")
    ok = matrix_ok and faults_ok
    print(f"\ncheck: {'PASS' if ok else 'FAIL'} "
          f"(oracle matrix {'ok' if matrix_ok else 'FAILED'}, "
          f"fault matrix {'ok' if faults_ok else 'FAILED'})")
    return 0 if ok else 1


def _cmd_fuzz(args) -> int:
    """``repro fuzz``: differential fuzzing campaigns.

    ``--smoke`` runs the fixed CI batch (210 programs: seeds 0..69 on
    each of 3 profiles across eager/lazy-vb/retcon); ``--minutes N``
    fuzzes the lowest seeds the ``.repro-fuzz/`` corpus has no verdict
    for until the time budget runs out, checked per seed; the default
    is one batch of ``--seeds`` such seeds per profile.  Every verdict
    is appended to the corpus as it is reached, so an interrupted
    campaign resumes when the same command runs again.
    """
    from repro.fuzz.campaign import (
        CampaignOptions,
        run_campaign,
        smoke_options,
    )
    from repro.fuzz.corpus import CampaignError
    from repro.fuzz.gen import FUZZ_PROFILES

    for profile in args.profiles:
        if profile not in FUZZ_PROFILES:
            raise UsageError(
                f"unknown fuzz profile {profile!r}; choose from "
                f"{sorted(FUZZ_PROFILES)}"
            )
    backends = tuple(
        dict.fromkeys(
            tuple(args.backends) + tuple(args.extra_backends or ())
        )
    )
    _known_backends(backends)
    common = dict(
        profiles=tuple(args.profiles),
        backends=backends,
        nthreads=args.cores,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        emit=not args.no_emit,
        fault=args.fault,
        config=_config_from_args(args),
        corpus_root=Path(args.corpus),
    )
    if args.smoke:
        opts = smoke_options(**common)
    else:
        opts = CampaignOptions(
            seed_start=args.seed_start,
            seeds=args.seeds,
            minutes=args.minutes,
            **common,
        )
    try:
        report = run_campaign(opts)
    except CampaignError as exc:
        raise UsageError(str(exc)) from None
    print(report.summary())
    for profile, seed in report.diverging:
        print(f"  diverging: profile={profile} seed={seed}")
    for line in report.shrink_summaries:
        print(f"  {line}")
    for path in report.emitted:
        print(f"  regression: {path}")
    return 0 if report.ok else 1


def _record(args) -> fig.Figure:
    """The record a figure/table/compare/sweep command line names."""
    if args.command == "compare":
        return fig.COMPARE
    if args.command == "sweep":
        if not args.smoke and args.workload is None:
            raise UsageError("a workload is required unless --smoke is given")
        return fig.SMOKE if args.smoke else fig.SWEEP
    name = f"table{args.number}" if args.command == "table" else args.number
    if name not in fig.FIGURES:
        raise UsageError(
            f"no such {args.command}: {args.number} "
            f"(have {', '.join(fig.FIGURES)})"
        )
    return fig.FIGURES[name]


def _show(args) -> int:
    """Run the command line's record at its point and print it — or,
    with ``-o``, write it under the figure's markdown header (``-o``
    on ``hybrid``/``capacity``/``service`` regenerates the committed
    ``docs/*.md`` tables).  Every machine/traffic flag reaches every
    point: the figure stamps its grid onto one base point."""
    figure = _record(args)
    options = {name: getattr(args, name) for name in figure.options}
    base = _point_from_args(args)
    labelled = figure.points(base, **options)
    _check_points(point for _label, point in labelled)
    finished = fig.run_pass([labelled], **_engine_opts(args))
    text = figure.render(figure.nest(labelled, finished, base), base.ncores)
    output = getattr(args, "output", None)
    if not output:
        print(text)
        return 0
    header = f"# {figure.title}\n\n" + figure.header.format(
        cores=args.cores, scale=args.scale, seed=args.seed,
        flags=_flags_given(args), output=output, backend=args.backend,
        backends=", ".join(args.backends),
    )
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + text + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.analysis.experiments import generate_report

    report = generate_report(
        ncores=args.cores, seed=args.seed, scale=args.scale,
        config=_config_from_args(args), **_engine_opts(args),
    )
    Path(args.output).write_text(report)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "RETCON reproduction: simulate the paper's workloads and "
            "regenerate its tables and figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and systems")

    run = sub.add_parser("run", help="run one workload on one system")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--system", default="retcon")
    run.add_argument(
        "--backend", dest="system",
        help="alias for --system (stm, hybrid-retcon, progressive, ...)",
    )
    run.add_argument(
        "--check", action="store_true",
        help="attach the repair oracle and diff against a golden run",
    )
    run.add_argument(
        "--trace", nargs="?", const=200, default=None, type=int,
        metavar="N",
        help="print the first N simulator trace events (default 200; "
             "0 = unlimited; bypasses the result cache)",
    )
    _add_run_args(run)

    compare = sub.add_parser(
        "compare", help="run one workload on several systems"
    )
    compare.add_argument("workload", choices=sorted(WORKLOADS))
    compare.add_argument(
        "--systems", default=fig.EVAL_SYSTEMS, type=_csv,
        help="comma-separated system list "
             f"(default {','.join(fig.EVAL_SYSTEMS)})",
    )
    _add_run_args(compare)

    figure = sub.add_parser(
        "figure",
        help="regenerate a record of the evaluation: "
             + ", ".join(fig.FIGURES),
    )
    figure.add_argument("number")
    figure.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the figure here (under its markdown header, for "
             "'hybrid'/'capacity'/'service') instead of stdout",
    )
    figure.add_argument(
        "--backend", default="hybrid-retcon",
        help="hybrid backend swept by 'figure hybrid' "
             "(default hybrid-retcon)",
    )
    figure.add_argument(
        "--backends", default=fig.SERVICE_BACKENDS, metavar="A,B,...",
        type=_csv,
        help="comma-separated backend list for 'figure service' "
             "(default eager,retcon,hybrid-retcon)",
    )
    figure.add_argument(
        "--check", action="store_true",
        help="attach the repair oracle + golden differ to every "
             "point (fails on any violation)",
    )
    _add_run_args(figure)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int)
    _add_run_args(table, traffic=False)

    experiments = sub.add_parser(
        "experiments", help="run everything and write EXPERIMENTS.md"
    )
    experiments.add_argument("-o", "--output", default="EXPERIMENTS.md")
    _add_run_args(experiments, traffic=False)

    sweep = sub.add_parser(
        "sweep", help="speedup vs core count for one workload"
    )
    sweep.add_argument(
        "workload", nargs="?", default=None, choices=sorted(WORKLOADS),
    )
    sweep.add_argument(
        "--systems", default=("eager", "retcon"), type=_csv,
        help="comma-separated system list (default eager,retcon)",
    )
    sweep.add_argument(
        "--core-counts", default=fig.DEFAULT_CORE_COUNTS,
        type=lambda text: tuple(map(int, text.split(","))),
        help="comma-separated core counts (default 1,2,4,8,16,32)",
    )
    sweep.add_argument("--scale", type=float, default=0.5)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--smoke", action="store_true",
        help="run the tiny CI smoke grid instead of a core sweep",
    )
    sweep.add_argument(
        "--backend", default=None, metavar="SYSTEM",
        help="sweep this single system instead of --systems (with "
             "--smoke: instead of the eager/lazy-vb/retcon trio)",
    )
    sweep.add_argument(
        "--check", action="store_true",
        help="attach the repair oracle + golden differ to every point",
    )
    _add_config_args(sweep)
    _add_traffic_args(sweep)
    _add_engine_args(sweep)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random transactional programs "
             "cross-checked on several backends against a sequential "
             "golden run, with automatic shrinking of divergences",
    )
    fuzz.add_argument(
        "--smoke", action="store_true",
        help="fixed CI batch: seeds 0..69 on every profile (210 "
             "programs across 3 backends)",
    )
    fuzz.add_argument(
        "--minutes", type=float, default=None, metavar="N",
        help="fuzz unscreened seeds in batches until N minutes "
             "elapse",
    )
    fuzz.add_argument(
        "--backends", nargs="+", default=["eager", "lazy-vb", "retcon"],
        help="TM systems to cross-check (default: eager lazy-vb retcon)",
    )
    fuzz.add_argument(
        "--backend", action="append", dest="extra_backends",
        default=None, metavar="NAME",
        help="extra TM system appended to --backends (repeatable; "
             "e.g. --backend stm --backend hybrid-retcon)",
    )
    fuzz.add_argument(
        "--profiles", nargs="+",
        default=["fuzz-mixed", "fuzz-rmw", "fuzz-branchy"],
        help="generator profiles to draw programs from",
    )
    fuzz.add_argument(
        "--seed-start", type=int, default=None,
        help="first seed (default: the lowest seeds the corpus has "
             "no verdict for)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=70,
        help="seeds per profile in one batch (default 70)",
    )
    fuzz.add_argument("--cores", type=int, default=4,
                      help="threads per generated program")
    fuzz.add_argument(
        "--fault", default=None, metavar="NAME",
        help="inject a check/faults.py fault (shrinker exercise; the "
             "campaign is expected to go red)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without minimizing them",
    )
    fuzz.add_argument(
        "--no-emit", action="store_true",
        help="shrink but do not write regression test files",
    )
    fuzz.add_argument(
        "--corpus", default=".repro-fuzz",
        help="corpus directory: one append-only verdict log per "
             "profile and setting; rerunning a command resumes it "
             "(default .repro-fuzz)",
    )
    _add_config_args(fuzz)
    _add_jobs_arg(fuzz)

    trace = sub.add_parser(
        "trace", help="trace tooling (Perfetto/Chrome-trace export)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="run one point with tracing and write Chrome-trace JSON "
             "(openable in ui.perfetto.dev); the pseudo-workload "
             "'figure2' exports the paper's two-core counter scenario",
    )
    export.add_argument(
        "workload", choices=sorted(WORKLOADS) + ["figure2"]
    )
    export.add_argument("--system", default="retcon")
    export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="output path (default trace_<workload>_<system>.json)",
    )
    _add_run_args(export)

    timeline = sub.add_parser(
        "timeline",
        help="ASCII per-core timeline plus contention heatmap and "
             "abort-attribution breakdown for one traced run",
    )
    timeline.add_argument(
        "workload", choices=sorted(WORKLOADS) + ["figure2"]
    )
    timeline.add_argument("--system", default="retcon")
    timeline.add_argument(
        "--width", type=int, default=72,
        help="timeline width in columns (default 72)",
    )
    _add_run_args(timeline)

    metrics = sub.add_parser(
        "metrics",
        help="run one point with the metrics registry attached and "
             "print every counter, gauge, and histogram",
    )
    metrics.add_argument("workload", choices=sorted(WORKLOADS))
    metrics.add_argument("--system", default="retcon")
    _add_run_args(metrics)

    check = sub.add_parser(
        "check",
        help="correctness oracle: replay every commit, diff against a "
             "golden run, and self-test via fault injection",
    )
    check.add_argument(
        "--smoke", action="store_true",
        help="small grid + shortened fault scenario (CI)",
    )
    check.add_argument(
        "--no-faults", action="store_true",
        help="skip the fault-injection self-test",
    )
    _add_engine_args(check)

    return parser


COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _show,
    "figure": _show,
    "table": _show,
    "experiments": _cmd_experiments,
    "sweep": _show,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
    "trace": _cmd_trace,
    "timeline": _cmd_timeline,
    "metrics": _cmd_metrics,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except fig.PointFailed as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
