"""Differential execution of one fuzz case across TM backends.

For each requested backend the case runs on an N-core machine with the
repair oracle attached, untraced.  Three independent signals are then
checked:

* **oracle** — every commit replays byte-identically against the
  serial state the oracle keeps (the initial memory plus every earlier
  commit's replayed stores, in commit order), and the backend's final
  memory equals that serial state (:mod:`repro.check.oracle`).  This is
  conflict serializability made executable; the forwarding backends
  meet it too, since a transaction that consumed forwarded data
  commits only after its source;
* **golden** — workload invariants on the sequential golden run and
  the backend run must both pass, and the backend run must end with
  no STM ownership word held (:mod:`repro.check.golden`); for
  commutative cases the final memories must additionally be
  byte-identical, which also forces *every* backend to agree with
  every other transitively;
* **stats** — begins (the oracle's count of transaction attempts,
  restarts included) equal commits + aborts, every committed
  transaction is accounted for exactly once, the oracle checked
  exactly the commits that happened, and no counter is negative.

A case with an injected fault (``fault=``) is expected to diverge;
``run_case`` just reports what it saw and the shrinker uses
"any divergence" as its failure predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from repro.check.golden import diff_memories, held_stm_ownership
from repro.fuzz.gen import FuzzCase
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, SimulationTimeout
from repro.sim.runner import run_sequential
from repro.sim.stats import CoreStats

#: the default differential matrix (ISSUE acceptance: >= 3 backends)
DEFAULT_BACKENDS = ("eager", "lazy-vb", "retcon")

#: tight watchdog for fuzz-sized programs (they finish in thousands of
#: cycles; a livelocked backend should fail fast, not after 500M)
FUZZ_MAX_CYCLES = 2_000_000


@dataclass
class Divergence:
    """One observed disagreement, attributed to a backend and a check."""

    kind: str  # oracle | golden | invariant | stats | timeout
    backend: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.backend}] {self.kind}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "backend": self.backend,
            "detail": self.detail,
        }


@dataclass
class BackendRun:
    """What one backend did with the case."""

    backend: str
    cycles: int = 0
    commits: int = 0
    aborts: int = 0
    begins: int = 0
    timed_out: bool = False


@dataclass
class CaseOutcome:
    """The full differential verdict for one case."""

    case: FuzzCase
    backends: tuple
    runs: list[BackendRun] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.divergences)} divergences"
        runs = " ".join(
            f"{r.backend}:{r.commits}c/{r.aborts}a" for r in self.runs
        )
        return f"{self.case.label()} -> {verdict} ({runs})"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "backends": list(self.backends),
            "divergences": [d.to_dict() for d in self.divergences],
        }


def run_case(
    case: FuzzCase,
    backends: tuple = DEFAULT_BACKENDS,
    config: Optional[MachineConfig] = None,
    fault: Optional[str] = None,
    oracle: bool = True,
) -> CaseOutcome:
    """Run *case* on every backend and cross-check all signals."""
    config = config or MachineConfig()
    label = case.label()
    generated = case.build_workload()
    outcome = CaseOutcome(case=case, backends=tuple(backends))
    diverge = outcome.divergences.append

    golden_memory = run_sequential(
        generated, config, label=f"fuzz sequential {label}"
    ).memory
    for inv in generated.check_invariants(golden_memory):
        if not inv.ok:
            diverge(
                Divergence(
                    "invariant",
                    "golden",
                    f"sequential run failed {inv.name}: {inv.detail}",
                )
            )

    expected_txns = case.txn_count()
    for backend in backends:
        machine = Machine(
            config.with_cores(case.nthreads),
            backend,
            generated.scripts,
            generated.memory.clone(),
            label=f"fuzz {backend} {label}",
            check=oracle,
        )
        if fault is not None:
            from repro.check.faults import FaultInjector

            machine.system.fault_injector = FaultInjector(fault)
        run = BackendRun(backend=backend)
        outcome.runs.append(run)
        try:
            result = machine.run(max_cycles=FUZZ_MAX_CYCLES)
        except SimulationTimeout as exc:
            run.timed_out = True
            diverge(Divergence("timeout", backend, str(exc)))
            continue

        run.cycles = result.cycles
        run.commits = result.commits
        run.aborts = result.aborts

        # -- stats sanity ---------------------------------------------
        if result.oracle is not None:
            run.begins = result.oracle.attempts
        if result.oracle and run.begins != run.commits + run.aborts:
            diverge(
                Divergence(
                    "stats",
                    backend,
                    f"begins={run.begins} != commits={run.commits} "
                    f"+ aborts={run.aborts}",
                )
            )
        if run.commits != expected_txns:
            diverge(
                Divergence(
                    "stats",
                    backend,
                    f"{run.commits} commits for {expected_txns} "
                    f"scripted txns",
                )
            )
        if result.oracle and result.oracle.checked_commits != run.commits:
            checked = result.oracle.checked_commits
            detail = f"oracle checked {checked} of {run.commits} commits"
            diverge(Divergence("stats", backend, detail))
        negatives = _negative_counters(result.stats)
        if negatives:
            diverge(
                Divergence(
                    "stats", backend, f"negative counters: {negatives}"
                )
            )

        # -- oracle ---------------------------------------------------
        if result.oracle is not None and result.oracle.violations:
            violations = result.oracle.violations
            kinds = ", ".join(sorted({v.kind for v in violations}))
            diverge(
                Divergence(
                    "oracle",
                    backend,
                    f"{len(violations)} violations ({kinds}), "
                    f"first: {violations[0]}",
                )
            )

        # -- workload invariants & strict golden memory ---------------
        for inv in generated.check_invariants(result.memory):
            if not inv.ok:
                diverge(
                    Divergence(
                        "invariant",
                        backend,
                        f"{inv.name}: {inv.detail}",
                    )
                )
        held = held_stm_ownership(result.memory)
        if held:
            diverge(
                Divergence(
                    "golden",
                    backend,
                    f"run ended holding {', '.join(held)}",
                )
            )
        if generated.strict_golden:
            _, blocks, nbytes, samples = diff_memories(
                golden_memory, result.memory
            )
            if nbytes:
                diverge(
                    Divergence(
                        "golden",
                        backend,
                        f"{nbytes} bytes in {blocks} blocks differ "
                        f"from sequential golden, sample addrs "
                        f"{[hex(a) for a in samples[:4]]}",
                    )
                )

    return outcome


def _negative_counters(stats) -> list[str]:
    """Names of any negative counters across all cores: every int
    field of :class:`CoreStats`, and every value of its dict fields."""
    bad: list[str] = []
    for cid, core in enumerate(stats.cores):
        for spec in fields(CoreStats):
            value = getattr(core, spec.name)
            if isinstance(value, dict):
                bad += [
                    f"core{cid}.{spec.name}[{key}]={count}"
                    for key, count in value.items()
                    if count < 0
                ]
            elif value < 0:
                bad.append(f"core{cid}.{spec.name}={value}")
    return bad
