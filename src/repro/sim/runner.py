"""High-level experiment driver.

``run_workload`` generates a workload, simulates it on the requested
TM system, runs the matching sequential baseline, and returns speedup,
time breakdown, abort counts, RETCON structure statistics (Table 3),
and post-run invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.script import concatenate
from repro.workloads.base import GeneratedWorkload, InvariantResult
from repro.workloads.registry import get_workload


@dataclass
class WorkloadResult:
    """Everything measured for one (workload, system, ncores) point."""

    workload: str
    system: str
    ncores: int
    cycles: int
    seq_cycles: int
    commits: int
    aborts: int
    aborts_by_reason: dict[str, int]
    breakdown: dict[str, float]
    table3: dict[str, tuple[float, float]]
    commit_stall_percent: float
    invariants: list[InvariantResult] = field(default_factory=list)
    #: (commits, aborted attempts) per transaction label
    by_label: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: True when a repair oracle watched the run
    oracle_checked: bool = False
    #: commits the oracle replayed and validated
    oracle_commits: int = 0
    #: serialized :class:`repro.check.oracle.OracleViolation` dicts
    oracle_violations: list[dict] = field(default_factory=list)
    #: serialized :class:`repro.check.golden.GoldenDiff`, if one ran
    golden: Optional[dict] = None
    #: STM / hybrid-backend counters (empty for pure-HTM systems):
    #: stm_commits, fallbacks, fallback_rate, barrier_instrs,
    #: subscription_aborts
    stm: dict = field(default_factory=dict)
    #: an ``obs="trace"`` engine point's ``EventStream.to_payload()``
    #: with its ``"metrics"`` snapshot; None for every other run
    trace: Optional[dict] = None

    @property
    def speedup(self) -> float:
        return self.seq_cycles / self.cycles if self.cycles else 0.0

    @property
    def invariants_ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    @property
    def oracle_ok(self) -> bool:
        return not self.oracle_violations

    @property
    def golden_ok(self) -> bool:
        return self.golden is None or bool(self.golden.get("ok"))

    @property
    def check_ok(self) -> bool:
        """Every enabled correctness signal passed."""
        return self.invariants_ok and self.oracle_ok and self.golden_ok

    def failed_invariants(self) -> list[InvariantResult]:
        return [inv for inv in self.invariants if not inv.ok]

    # -- JSON round-trip (used by the result cache) --------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation; :meth:`from_dict` inverts it."""
        out = {
            "workload": self.workload,
            "system": self.system,
            "ncores": self.ncores,
            "cycles": self.cycles,
            "seq_cycles": self.seq_cycles,
            "commits": self.commits,
            "aborts": self.aborts,
            "aborts_by_reason": dict(self.aborts_by_reason),
            "breakdown": dict(self.breakdown),
            "table3": {k: list(v) for k, v in self.table3.items()},
            "commit_stall_percent": self.commit_stall_percent,
            "invariants": [
                {"name": inv.name, "ok": inv.ok, "detail": inv.detail}
                for inv in self.invariants
            ],
            "by_label": {k: list(v) for k, v in self.by_label.items()},
            "oracle_checked": self.oracle_checked,
            "oracle_commits": self.oracle_commits,
            "oracle_violations": list(self.oracle_violations),
            "golden": self.golden,
        }
        # Only the hybrid/software backends populate this; omitting an
        # empty dict keeps hardware-only results byte-identical to the
        # pre-HyTM golden stats fixtures.
        if self.stm:
            out["stm"] = dict(self.stm)
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadResult":
        return cls(
            workload=data["workload"],
            system=data["system"],
            ncores=data["ncores"],
            cycles=data["cycles"],
            seq_cycles=data["seq_cycles"],
            commits=data["commits"],
            aborts=data["aborts"],
            aborts_by_reason=dict(data["aborts_by_reason"]),
            breakdown=dict(data["breakdown"]),
            table3={
                k: tuple(v) for k, v in data["table3"].items()
            },
            commit_stall_percent=data["commit_stall_percent"],
            invariants=[
                InvariantResult(
                    name=inv["name"], ok=inv["ok"], detail=inv["detail"]
                )
                for inv in data["invariants"]
            ],
            by_label={
                k: tuple(v) for k, v in data["by_label"].items()
            },
            oracle_checked=data.get("oracle_checked", False),
            oracle_commits=data.get("oracle_commits", 0),
            oracle_violations=list(data.get("oracle_violations", ())),
            golden=data.get("golden"),
            stm=dict(data.get("stm", ())),
            trace=data.get("trace"),
        )


def _label(
    name: str, system: str, ncores: int, seed: int, scale: float
) -> str:
    """A machine's label: what a watchdog error names."""
    return f"{name}/{system} ncores={ncores} seed={seed} scale={scale}"


def run_sequential(
    generated: GeneratedWorkload,
    config: Optional[MachineConfig] = None,
    label: Optional[str] = None,
) -> RunResult:
    """Run the workload's total work on a single core: the paper's
    "seq" baseline that Figures 1, 3, and 9 normalize against, and —
    every thread's transactions back to back cannot lose updates or
    commit unserializably — the golden final state.  *label* names
    the point in a watchdog error."""
    config = config or MachineConfig()
    sequential = concatenate(generated.scripts)
    machine = Machine(
        config.with_cores(1), "eager", [sequential],
        generated.memory.clone(), label=label,
    )
    return machine.run()


def run_workload(
    name: str,
    system: str = "retcon",
    ncores: int = 32,
    seed: int = 1,
    scale: float = 1.0,
    config: Optional[MachineConfig] = None,
    sequential: Optional[RunResult] = None,
    generated: Optional[GeneratedWorkload] = None,
    oracle: bool = False,
    golden: bool = False,
    tracer=None,
    metrics=None,
) -> WorkloadResult:
    """Simulate *name* on *system* and compare against sequential.

    Pass ``sequential`` (a prior :func:`run_sequential` result) to
    avoid re-running the baseline when sweeping systems, and
    ``generated`` to reuse the generated workload instead of
    regenerating it per system; :func:`generate_and_baseline` returns
    both.

    ``oracle=True`` attaches the replay-based repair oracle
    (:mod:`repro.check.oracle`) to the run; ``golden=True`` diffs the
    final state against the sequential run's final memory
    (:mod:`repro.check.golden`); ``tracer`` attaches a
    :class:`repro.obs.events.EventStream` to the TM system; ``metrics``
    attaches a :class:`repro.obs.metrics.MetricsRegistry`.  The
    workload's invariants are always evaluated on the final memory.
    """
    config = (config or MachineConfig()).with_cores(ncores)
    if generated is None:
        generated = get_workload(name).generate(ncores, seed=seed, scale=scale)

    machine = Machine(
        config,
        system,
        generated.scripts,
        generated.memory.clone(),
        label=_label(name, system, ncores, seed, scale),
        check=oracle,
        tracer=tracer,
        metrics=metrics,
    )
    parallel = machine.run()

    if sequential is None:
        sequential = run_sequential(
            generated, config,
            label=_label(name, "sequential", ncores, seed, scale),
        )

    invariants = generated.check_invariants(parallel.memory)
    oracle = parallel.oracle
    golden_dict = None
    if golden:
        from repro.check.golden import golden_diff

        golden_dict = golden_diff(
            generated,
            parallel.memory,
            sequential.memory,
            strict_memory=generated.strict_golden,
        ).to_dict()
    stats = parallel.stats
    stm_dict: dict = {}
    if stats.did_stm_work():
        stm_dict = {
            "stm_commits": stats.total_stm_commits(),
            "fallbacks": stats.total_stm_fallbacks(),
            "fallback_rate": stats.stm_fallback_rate(),
            "barrier_instrs": stats.total_barrier_instrs(),
            "subscription_aborts": stats.subscription_aborts(),
        }
    return WorkloadResult(
        workload=name,
        system=system,
        ncores=ncores,
        cycles=parallel.cycles,
        seq_cycles=sequential.cycles,
        commits=stats.total_commits(),
        aborts=stats.total_aborts(),
        aborts_by_reason=stats.aborts_by_reason(),
        breakdown=stats.breakdown(),
        table3=stats.table3_row(),
        commit_stall_percent=stats.commit_stall_percent(),
        invariants=invariants,
        by_label=stats.label_summary(),
        oracle_checked=oracle is not None,
        oracle_commits=oracle.checked_commits if oracle else 0,
        oracle_violations=(
            [v.to_dict() for v in oracle.violations] if oracle else []
        ),
        golden=golden_dict,
        stm=stm_dict,
    )


def generate_and_baseline(
    name: str,
    ncores: int = 32,
    seed: int = 1,
    scale: float = 1.0,
    config: Optional[MachineConfig] = None,
) -> tuple[GeneratedWorkload, RunResult]:
    """Generate once and run the sequential reference once (for
    sweeps): its cycles are the speedup baseline and its final memory
    the golden image of every checked point of the group."""
    config = (config or MachineConfig()).with_cores(ncores)
    generated = get_workload(name).generate(ncores, seed=seed, scale=scale)
    return generated, run_sequential(
        generated, config,
        label=_label(name, "sequential", ncores, seed, scale),
    )
