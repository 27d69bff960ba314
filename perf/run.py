"""Host-time benchmark of the simulator: six workloads, layer by layer.

    python3 perf/run.py [--workload NAME ...] [--seed 1] [--seconds 9]
                        [--trace 0|1] [--quick] [-o perf/out/latest.json]

Closed loop, one client: exactly one child process computes at a time.
For each of ``TRIALS`` trials, and inside a trial for each selected
workload in fixed order, a fresh child (``child.py``) imports
``repro``, generates its inputs from ``--seed``, runs one untimed
warm-up unit, then runs timed units for ``--seconds / TRIALS``.  So
every workload's samples are spread over the whole run (a slow phase
of the shared host hits all workloads, not one), ``setup_s`` is
sampled once per trial and ``ru_maxrss`` is per workload.  A traced
pass follows: one more child per workload that also profiles one unit
for the per-layer metrics.  ``--trace 0`` / ``--trace 1`` run only the
timed / only the traced pass.

Every metric is printed by name with its unit.  Outputs are checked
inside the run; any failed item makes the exit code 1 after all
metrics are printed.  With one ``--workload`` and an explicit
``--trace`` the last stdout line is the one-object summary the
benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(job: dict) -> dict:
    """Run one child to completion; return its report plus setup_s."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PERF_DIR / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        ready_line = child.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = child.stdout.read()
    if child.returncode != 0 or not ready_line or not rest:
        raise SystemExit(
            f"perf child for {job['workload']!r} exited with "
            f"{child.returncode} before reporting"
        )
    report = json.loads(rest)
    report.update(json.loads(ready_line))
    report["setup_s"] = setup_s
    return report


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize(samples: list[float], unit: str, pick=statistics.median) -> dict:
    """The reported value with median, quartiles, extremes and count."""
    if len(samples) > 1:
        q1, _mid, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": pick(samples),
        "unit": unit,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _checks(reports: list[dict]) -> tuple[int, list[dict], str]:
    """(attempted, failures, digest) over every unit run."""
    attempted = 0
    failures = []
    digests = set()
    for report in reports:
        batches = [report["warmup"], *report["units"]]
        if "traced" in report:
            batches.append(report["traced"])
        for batch in batches:
            attempted += batch["attempted"]
            failures.extend(batch["failures"])
            digests.add(batch["digest"])
    if len(digests) > 1:
        failures.append({
            "item": "simstat.digest",
            "detail": f"{len(digests)} different digests in one run",
        })
    return attempted, failures, min(digests)


#: A unit's time is deterministic work plus whatever the shared host
#: adds, and the host only ever adds: its slow phases outlast a run and
#: moved run medians by up to 22 % with no code change (README.md), the
#: fastest unit by a quarter of that.  So the two speed metrics report
#: the best unit of the run; the median and quartiles ride along.
_PICK = {"wall_s": min, "sim_core_cycles_per_s": max}


def end_to_end(reports: list[dict]) -> dict:
    units = [unit for report in reports for unit in report["units"]]
    samples = {
        "setup_s": [report["setup_s"] for report in reports],
        "wall_s": [unit["wall_s"] for unit in units],
        "sim_core_cycles_per_s": [
            unit["core_cycles"] / unit["wall_s"] for unit in units
        ],
        "peak_rss_mb": [report["peak_rss_mb"] for report in reports],
    }
    return {
        name: summarize(
            samples[name], unit, _PICK.get(name, statistics.median)
        )
        for name, unit, _better, _bound in spec.END_TO_END
    }


def per_layer(report: dict) -> dict:
    """Every per-layer metric from the traced child's report."""
    units = report["units"]
    wall_s = statistics.median(unit["wall_s"] for unit in units)
    values = dict(report["traced"]["layers"])

    def extra(name: str) -> float:
        found = [u["extras"][name] for u in units if name in u["extras"]]
        return statistics.median(found) if found else 0.0

    info = report["informational"]
    case_ms = [ms for unit in units for ms in unit["extras"].get("case_ms", ())]
    cases_n = len(case_ms) // len(units)
    unobserved = info.get("unobserved_wall_s")
    values.update({
        "host.cpu_s": statistics.median(unit["cpu_s"] for unit in units),
        "host.import_s": report["import_s"],
        "host.trace_overhead_x": report["traced"]["wall_s"] / wall_s,
        "obs.overhead_x": (
            min(unit["wall_s"] for unit in units) / unobserved
            if unobserved else 0.0
        ),
        "obs.events_emitted": extra("events_emitted"),
        "obs.events_dropped": extra("events_dropped"),
        "exp.cache.warm_pass_ms": extra("cache_warm_pass_ms"),
        "exp.cache.hits": extra("cache_hits"),
        "exp.cache.bytes": extra("cache_bytes"),
        "exp.engine.pool_pass_s": info.get("pool_pass_s", 0.0),
        "fuzz.cases_per_s": cases_n / wall_s if case_ms else 0.0,
        "fuzz.case_p50_ms": _percentile(case_ms, 0.5) if case_ms else 0.0,
        "fuzz.case_p90_ms": _percentile(case_ms, 0.9) if case_ms else 0.0,
        "fuzz.cases_n": cases_n,
    })
    sim = report["sim"]
    for name, _unit, _better in spec.SIM_COUNTS:
        values[f"simstat.{name}"] = sim[name]
    attempts = sim["commits"] + sim["aborts"]
    values["simstat.commit_ratio"] = (
        sim["commits"] / attempts if attempts else 0.0
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in spec.per_layer()
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict:
    """Where the numbers came from.  Absolute values are informational
    across hosts; only same-host pairs are compared."""
    status = _git("status", "--porcelain")
    return {
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "memory": _first_line("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status == "unknown" else bool(status),
        "loadavg_start": os.getloadavg(),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_metrics(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} items attempted, "
          f"{result['failed']} failed")
    for metric, stat in result.get("end_to_end", {}).items():
        print(
            f"  {metric:<40} {stat['value']:>16.6g} {stat['unit']:<6} "
            f"median={stat['median']:.6g} "
            f"q1={stat['q1']:.6g} q3={stat['q3']:.6g} "
            f"min={stat['min']:.6g} max={stat['max']:.6g} n={stat['n']}"
        )
    for metric, stat in result.get("per_layer", {}).items():
        print(f"  {metric:<40} {stat['value']:>16.6g} {stat['unit']}")
    print(f"  {'simstat.digest':<40} {result['digest']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['item']}: {failure['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(spec.WORKLOADS),
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"timed seconds per workload (default {spec.RUN_SECONDS}; "
             "1 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: timed pass only; 1: traced pass only (default: both)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, one trial: for the harness's tests, "
             "never a baseline",
    )
    parser.add_argument("-o", "--output", help="write the full JSON here")
    args = parser.parse_args(argv)

    names = args.workload or list(spec.WORKLOADS)
    trials = 1 if args.quick else spec.TRIALS
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec.RUN_SECONDS)
    job = {
        "seed": args.seed, "quick": args.quick,
        "seconds": seconds / trials,
    }
    out = {
        "schema": spec.SCHEMA,
        "quick": args.quick,
        "seed": args.seed,
        "seconds": seconds,
        "trials": trials,
        "end_to_end": spec.benchmark_json()["end_to_end"],
        "provenance": provenance(),
        "workloads": {},
    }

    timed = {name: [] for name in names}
    if args.trace != 1:
        for _trial in range(trials):
            for name in names:
                timed[name].append(
                    run_child({**job, "workload": name, "trace": False})
                )
    traced = {}
    if args.trace != 0:
        for name in names:
            traced[name] = run_child({**job, "workload": name, "trace": True})
    out["provenance"]["loadavg_end"] = os.getloadavg()

    for name in names:
        reports = timed[name] + ([traced[name]] if name in traced else [])
        attempted, failures, digest = _checks(reports)
        result = {
            "sizes": reports[0]["sizes"],
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "digest": digest,
        }
        if timed[name]:
            result["end_to_end"] = end_to_end(timed[name])
        if name in traced:
            result["per_layer"] = per_layer(traced[name])
        out["workloads"][name] = result
        print_metrics(name, result)

    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")

    if len(names) == 1 and args.trace is not None:
        result = out["workloads"][names[0]]
        metrics = result["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": stat["value"], "unit": stat["unit"]}
                for metric, stat in metrics.items()
            },
        }))
    return 1 if any(w["failed"] for w in out["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
