"""Differential execution of one fuzz case across TM backends.

For each requested backend the case runs on an N-core machine with a
tracer recording the global begin/commit/abort stream and the repair
oracle attached.  Four independent signals are then checked:

* **oracle** — every commit replays byte-identically
  (:mod:`repro.check.oracle`);
* **serialization** — the trace gives the actual global commit order;
  re-executing the committed transactions *serially in that order*
  from the same initial memory must reproduce the backend's final
  memory byte for byte.  This is the definition of conflict
  serializability made executable; the forwarding backends meet it
  too, since a transaction that consumed forwarded data commits only
  after its source;
* **golden** — workload invariants on the sequential golden run and
  the backend run must both pass (:mod:`repro.check.golden`); for
  commutative cases the final memories must additionally be
  byte-identical, which also forces *every* backend to agree with
  every other transitively;
* **stats** — traced begins equal commits + aborts, every committed
  transaction is accounted for exactly once, the oracle checked
  exactly the commits that happened, and no counter is negative.

A case with an injected fault (``fault=``) is expected to diverge;
``run_case`` just reports what it saw and the shrinker uses
"any divergence" as its failure predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from repro.check.golden import diff_memories
from repro.fuzz.gen import FuzzCase
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, SimulationTimeout
from repro.sim.runner import run_sequential
from repro.sim.script import ThreadScript, Txn
from repro.sim.stats import CoreStats
from repro.obs.events import EventStream

#: the default differential matrix (ISSUE acceptance: >= 3 backends)
DEFAULT_BACKENDS = ("eager", "lazy-vb", "retcon")

#: tight watchdog for fuzz-sized programs (they finish in thousands of
#: cycles; a livelocked backend should fail fast, not after 500M)
FUZZ_MAX_CYCLES = 2_000_000


@dataclass
class Divergence:
    """One observed disagreement, attributed to a backend and a check."""

    kind: str  # oracle | serialization | golden | invariant | stats | timeout
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


def _commit_order_replay(
    programs: list,
    label: str,
    tracer: EventStream,
    initial: MainMemory,
    config: MachineConfig,
) -> tuple[Optional[MainMemory], Optional[str]]:
    """Re-execute the committed transactions serially in traced commit
    order; return (final memory, error).

    *programs* is ``[thread][index]`` over the case's own assembled
    programs — the objects the backend just ran — so the replay shares
    their handler chains instead of building its own.
    """
    next_txn = [0] * len(programs)
    serial = ThreadScript()
    for event in tracer.of_kind("commit"):
        thread = event.core
        if thread >= len(programs):
            return None, f"commit traced on unscripted core {thread}"
        index = next_txn[thread]
        if index >= len(programs[thread]):
            return None, (
                f"core {thread} committed {index + 1} txns but its "
                f"script has {len(programs[thread])}"
            )
        next_txn[thread] += 1
        serial.add_txn(programs[thread][index], label="replay")
    machine = Machine(
        config.with_cores(1),
        "eager",
        [serial],
        initial.clone(),
        label=f"serial replay {label}",
    )
    machine.run(max_cycles=FUZZ_MAX_CYCLES)
    return machine.memory, None


def run_case(
    case: FuzzCase,
    backends: tuple = DEFAULT_BACKENDS,
    config: Optional[MachineConfig] = None,
    fault: Optional[str] = None,
    fault_seed: int = 0,
    oracle: bool = True,
) -> CaseOutcome:
    """Run *case* on every backend and cross-check all signals."""
    config = config or MachineConfig()
    label = case.label()
    generated = case.build_workload()
    programs = [
        [item.program for item in script.items if isinstance(item, Txn)]
        for script in generated.scripts
    ]
    outcome = CaseOutcome(case=case, backends=tuple(backends))
    diverge = outcome.divergences.append

    golden_memory = run_sequential(generated, config).memory
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
        tracer = EventStream()
        machine = Machine(
            config.with_cores(case.nthreads),
            backend,
            generated.scripts,
            generated.memory.clone(),
            label=f"fuzz {backend} {label}",
            check=oracle,
            tracer=tracer,
        )
        if fault is not None:
            from repro.check.faults import FaultInjector

            machine.system.fault_injector = FaultInjector(
                fault, seed=fault_seed
            )
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
        run.begins = len(tracer.of_kind("begin"))

        # -- stats sanity ---------------------------------------------
        if run.begins != run.commits + run.aborts:
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
            first = result.oracle.violations[0]
            diverge(
                Divergence(
                    "oracle",
                    backend,
                    f"{len(result.oracle.violations)} violations, "
                    f"first: {first}",
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

        # -- commit-order serializability -----------------------------
        replay_memory, error = _commit_order_replay(
            programs, label, tracer, generated.memory, config
        )
        if error is not None:
            diverge(Divergence("serialization", backend, error))
            continue
        _, blocks, nbytes, samples = diff_memories(
            replay_memory, result.memory
        )
        if nbytes:
            diverge(
                Divergence(
                    "serialization",
                    backend,
                    f"final memory differs from serial replay in commit "
                    f"order: {nbytes} bytes in {blocks} blocks, sample "
                    f"addrs {[hex(a) for a in samples[:4]]}",
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
