"""What ``perf/`` reports: workloads, metric names, units, bounds.

The one definition the runner, the comparer, the tests and the root
``BENCHMARK.json`` share.  ``python3 perf/spec.py`` prints the
``BENCHMARK.json`` this module describes; ``test_perf_harness.py``
fails when the committed file has drifted from it.

Everything is *host* time unless the name starts with ``simstat.``
(simulated, exact: repeats bit for bit under one seed).
"""

from __future__ import annotations

import json

#: bump when the output JSON of ``run.py`` changes shape
SCHEMA = 1

#: seconds of timed units per (workload, run), split over TRIALS
RUN_SECONDS = 9

#: fresh child processes per (workload, run): each pays the whole
#: set-up, so ``setup_s`` is a median of TRIALS samples, and the timed
#: units are spread over TRIALS address-space layouts
TRIALS = 3

#: name -> why the workload was chosen (one line, <= 200 characters)
WORKLOADS = {
    "retcon-repair": (
        "retcon on python_opt/genome-sz/vacation_opt-sz/intruder_opt-sz: "
        "the paper's headline case, symbolic tracking and pre-commit "
        "repair (core.*) do the most work, aborts are rare"
    ),
    "htm-contended": (
        "eager and lazy-vb on python_opt/genome-sz: the abort/stall path "
        "(conflict walk, contention policy, stall tickets, invalidations) "
        "dominates and core.* is idle"
    ),
    "hybrid-capacity": (
        "stm/hybrid-retcon/progressive/hybrid-eager with a 4-block read "
        "set: software barriers, orec metadata, capacity overflow and "
        "HTM->STM escalation on the load/store layer"
    ),
    "service-observed": (
        "the five runs 'figure service' makes, EventStream + "
        "MetricsRegistry attached: stall tickets off and ~23 observer "
        "hooks live, the only workload where obs costs anything"
    ),
    "sweep-cold": (
        "run_points over 3 workloads x 3 systems into a fresh cache, "
        "then again warm: generation, decode compile, sequential "
        "baseline, invariants, encode, cache write/read"
    ),
    "fuzz-checked": (
        "generate_case + run_case(oracle) over the four fuzz profiles on "
        "five backends: many tiny machines, so construction, the oracle, "
        "serial replay and golden diff dominate"
    ),
}

#: (name, unit, better, bound): what a user of the simulator sees.
#: ``bound`` is the share of the parent's median by which the metric
#: may worsen before a change counts as a regression.  The three
#: timing bounds are the widest the contract allows because the shared
#: reference host moves by that much on its own (README.md, noise).
END_TO_END = (
    # child start to ready: imports, generation, cold warm-up unit
    ("setup_s", "s", "lower", 0.25),
    # wall seconds of one unit (the run's fastest: see run.py)
    ("wall_s", "s", "lower", 0.25),
    # simulated core-cycles of the unit / wall_s: host time per
    # simulated event, comparable even when the simulated work moves
    ("sim_core_cycles_per_s", "1/s", "higher", 0.25),
    # child ru_maxrss at exit
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: host-time layers, bucketed by defining file (see layers.py)
LAYERS = (
    "workloads",
    "isa",
    "sim.decode.compile",
    "sim.decode.exec",
    "sim.cpu",
    "sim.machine",
    "sim.stats",
    "htm.system",
    "htm.policy",
    "stm",
    "coherence.directory",
    "mem.cache",
    "mem.memory",
    "core.engine",
    "core.buffers",
    "core.sym",
    "obs",
    "check",
    "fuzz",
    "exp",
    "host",
)

#: boundary edges: cumulative time and calls across one public call
EDGES = (
    "tm.begin",
    "tm.load",
    "tm.store",
    "tm.commit",
    "coherence.acquire",
    "core.commit_plan",
    "decode.chain_for",
    "machine.build",
    "machine.run",
    "workloads.generate",
    "runner.run_sequential",
    "workloads.check_invariants",
    "check.golden_diff",
    "exp.cache.put",
    "exp.cache.get",
    "fuzz.generate_case",
    "fuzz.run_case",
    "obs.emit",
    "obs.collect_machine",
)

#: from the untraced units of the traced run
_TIMED = (
    ("host.cpu_s", "s", "lower"),
    ("host.import_s", "s", "lower"),
    ("host.trace_overhead_x", "x", "lower"),
    ("obs.overhead_x", "x", "lower"),
    ("obs.events_emitted", "count", "lower"),
    ("obs.events_dropped", "count", "lower"),
    ("exp.cache.warm_pass_ms", "ms", "lower"),
    ("exp.cache.hits", "count", "higher"),
    ("exp.cache.bytes", "bytes", "lower"),
    ("exp.engine.pool_pass_s", "s", "lower"),
    ("fuzz.cases_per_s", "1/s", "higher"),
    ("fuzz.case_p50_ms", "ms", "lower"),
    ("fuzz.case_p90_ms", "ms", "lower"),
    ("fuzz.cases_n", "count", "higher"),
)

#: exact simulated counts of one unit; none may move under a change
#: that claims host speed only
SIM_COUNTS = (
    ("makespan_cycles", "cycles", "lower"),
    ("core_cycles", "cycles", "lower"),
    ("commits", "count", "higher"),
    ("aborts", "count", "lower"),
    ("stm_fallbacks", "count", "lower"),
    ("barrier_instrs", "count", "lower"),
    ("cache_overflows", "count", "lower"),
    ("l1_evictions", "count", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "share", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    for edge in EDGES:
        out.append((f"{edge}.cum_s", "s", "lower"))
        out.append((f"{edge}.calls", "count", "lower"))
    out.extend(_TIMED)
    out.extend((f"simstat.{name}", unit, better)
               for name, unit, better in SIM_COUNTS)
    out.append(("simstat.commit_ratio", "share", "higher"))
    return out


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
