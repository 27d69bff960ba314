"""Execution statistics: time breakdown and Table 3 structure usage.

The paper's Figures 4 and 10 break execution time into:

* ``busy`` — all time spent not stalled on synchronization (work in
  transactions that ultimately commit, plus non-transactional work);
* ``barrier`` — time stalled at a barrier (load imbalance);
* ``conflict`` — time stalled by another processor plus work performed
  in transactions that are ultimately aborted;
* ``other`` — all other synchronization-related stalls (here: the
  RETCON pre-commit repair latency).

Table 3 aggregates per-transaction samples of the RETCON structures:
average and maximum blocks lost, blocks tracked, symbolic registers,
private (buffered) stores, constraint addresses, commit cycles, and
the percentage of transaction lifetime spent in pre-commit repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.engine import TxnRetconSample


@dataclass(slots=True)
class CoreStats:
    """Cycle attribution and event counts for one core.

    Cycles are written at transaction boundaries only: the interpreter
    accumulates per-attempt cycles in core-local variables
    (``attempt_busy``/``attempt_conflict``) and flushes them here on
    commit or abort, so the per-instruction path never touches this
    object.  Event counts land at their event, mid-attempt included
    (a conflict, a steal, a forward), from the TM system.  This is the
    one record of every count: a metrics registry only collects it at
    end of run (:mod:`repro.obs.collect`).  ``slots=True`` keeps each
    write cheap.
    """

    busy: int = 0
    conflict: int = 0
    barrier: int = 0
    other: int = 0
    commits: int = 0
    aborts: dict[str, int] = field(default_factory=dict)
    stall_events: int = 0
    #: commits that ran on the STM slow path (subset of ``commits``)
    stm_commits: int = 0
    #: logical transactions that escalated from HTM to STM
    stm_fallbacks: int = 0
    #: instrumentation instructions: STM barriers/validation/publish
    #: plus hybrid HTM-side subscription and orec publication
    barrier_instrs: int = 0
    #: committed / aborted transaction counts per txn label
    label_commits: dict[str, int] = field(default_factory=dict)
    label_aborts: dict[str, int] = field(default_factory=dict)
    #: capacity aborts per overflowing structure (subset of
    #: ``aborts["capacity"]``: the requester's own, not the cascade)
    capacity_aborts: dict[str, int] = field(default_factory=dict)
    #: conflicts this core resolved as requester (stall retries
    #: included: each one resolves again)
    conflict_events: int = 0
    #: this core's value-tracked blocks stolen by a remote writer
    steals: int = 0
    #: buffered stores this core's RETCON commits drained
    repairs: int = 0
    #: commit-order dependences this core took on forwarded values
    forwards: int = 0
    #: commits that lost a tracked block and still committed
    repaired_commits: int = 0

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    @property
    def total(self) -> int:
        return self.busy + self.conflict + self.barrier + self.other


@dataclass(slots=True)
class _Agg:
    """Streaming average/maximum."""

    total: float = 0.0
    count: int = 0
    maximum: float = 0.0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MachineStats:
    """All statistics for one simulation run."""

    RETCON_FIELDS = (
        "blocks_lost",
        "blocks_tracked",
        "symbolic_registers",
        "private_stores",
        "constraint_addresses",
        "commit_cycles",
    )

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self._cores = [CoreStats() for _ in range(ncores)]
        self._retcon = {name: _Agg() for name in self.RETCON_FIELDS}
        self._txn_cycles = 0
        self._txn_commit_cycles = 0
        self._pending_retcon: list[Optional[TxnRetconSample]] = [
            None
        ] * ncores
        #: optional :class:`repro.obs.metrics.MetricsRegistry`; when
        #: attached, commit-boundary samples also feed its histograms.
        self.metrics = None

    def bind_metrics(self, registry) -> None:
        """Attach a registry, holding the histograms commits observe."""
        self.metrics = registry
        self._h_duration = registry.histogram("txn.duration_cycles")
        self._h_commit = registry.histogram("txn.commit_cycles")

    # ------------------------------------------------------------------
    def core(self, core: int) -> CoreStats:
        return self._cores[core]

    @property
    def cores(self) -> list[CoreStats]:
        return list(self._cores)

    # ------------------------------------------------------------------
    # RETCON per-transaction samples
    # ------------------------------------------------------------------
    def record_retcon_sample(
        self, core: int, sample: TxnRetconSample
    ) -> None:
        """Called by the TM system at pre-commit; paired with the
        interpreter's :meth:`record_txn` for the same transaction."""
        self._pending_retcon[core] = sample

    def record_txn(self, core: int, duration: int, commit_cycles: int) -> None:
        """A transaction committed after *duration* total cycles."""
        self._txn_cycles += duration
        self._txn_commit_cycles += commit_cycles
        if self.metrics is not None:
            # Same boundary-only discipline as CoreStats: one
            # histogram observation per committed transaction.
            self._h_duration.observe(duration)
            self._h_commit.observe(commit_cycles)
        sample = self._pending_retcon[core]
        if sample is not None:
            self._pending_retcon[core] = None
            for name in self.RETCON_FIELDS:
                self._retcon[name].add(getattr(sample, name))
            if sample.blocks_lost > 0:
                # A commit that lost blocks and still committed went
                # through symbolic repair — the service figure's
                # repair-rate numerator.  Not in WorkloadResult, which
                # stays byte-identical to the golden stats fixtures.
                self._cores[core].repaired_commits += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total(self, name: str) -> int:
        """The int :class:`CoreStats` field *name*, summed over cores."""
        return sum(getattr(c, name) for c in self._cores)

    def merged(self, name: str) -> dict[str, int]:
        """The dict :class:`CoreStats` field *name*, summed key by key
        over cores (a key appears once some core counted it)."""
        merged: dict[str, int] = {}
        for core in self._cores:
            for key, count in getattr(core, name).items():
                merged[key] = merged.get(key, 0) + count
        return merged

    def total_commits(self) -> int:
        return self.total("commits")

    def total_aborts(self) -> int:
        return sum(c.total_aborts for c in self._cores)

    def aborts_by_reason(self) -> dict[str, int]:
        return self.merged("aborts")

    def breakdown(self) -> dict[str, float]:
        """Normalized busy/conflict/barrier/other fractions."""
        busy = self.total("busy")
        conflict = self.total("conflict")
        barrier = self.total("barrier")
        other = self.total("other")
        total = busy + conflict + barrier + other
        if total == 0:
            return {"busy": 0.0, "conflict": 0.0, "barrier": 0.0, "other": 0.0}
        return {
            "busy": busy / total,
            "conflict": conflict / total,
            "barrier": barrier / total,
            "other": other / total,
        }

    def table3_row(self) -> dict[str, tuple[float, float]]:
        """(average, maximum) for each Table 3 column."""
        return {
            name: (agg.mean, agg.maximum)
            for name, agg in self._retcon.items()
        }

    def label_summary(self) -> dict[str, tuple[int, int]]:
        """(commits, aborted attempts) per transaction label."""
        merged: dict[str, tuple[int, int]] = {}
        for core in self._cores:
            for label, count in core.label_commits.items():
                commits, aborts = merged.get(label, (0, 0))
                merged[label] = (commits + count, aborts)
            for label, count in core.label_aborts.items():
                commits, aborts = merged.get(label, (0, 0))
                merged[label] = (commits, aborts + count)
        return merged

    def commit_stall_percent(self) -> float:
        """Pre-commit repair cycles as % of transaction lifetime.

        0.0 when nothing committed (all-abort / empty runs), like
        every other percentage here: an all-abort run is a valid
        outcome of an adversarial schedule and must not crash the
        aggregation.
        """
        if self._txn_cycles == 0:
            return 0.0
        return 100.0 * self._txn_commit_cycles / self._txn_cycles

    def abort_rate_percent(self) -> float:
        """Aborted attempts as % of all attempts; 0.0 with no attempts.

        Guarded against the all-abort case: commits may be zero while
        aborts are not, and vice versa.
        """
        commits = self.total_commits()
        aborts = self.total_aborts()
        attempts = commits + aborts
        if attempts == 0:
            return 0.0
        return 100.0 * aborts / attempts

    # ------------------------------------------------------------------
    # STM / hybrid aggregates
    # ------------------------------------------------------------------
    def did_stm_work(self) -> bool:
        """Did the run do software-TM work (a software commit, a
        fallback, or barrier instrumentation)?  Decides whether a
        result reports its STM counters at all."""
        return bool(
            self.total_stm_commits()
            or self.total_stm_fallbacks()
            or self.total_barrier_instrs()
        )

    def total_stm_commits(self) -> int:
        return self.total("stm_commits")

    def total_stm_fallbacks(self) -> int:
        return self.total("stm_fallbacks")

    def total_barrier_instrs(self) -> int:
        return self.total("barrier_instrs")

    def subscription_aborts(self) -> int:
        """Aborted attempts attributed to HTM/STM synchronization
        (clock-subscription dooms and owned-orec commit vetoes)."""
        return sum(c.aborts.get("subscription", 0) for c in self._cores)

    def stm_fallback_rate(self) -> float:
        """Committed transactions that escalated to the software path,
        as a fraction of all commits.

        Guarded like :meth:`abort_rate_percent`: an all-fallback or
        all-abort run (retry_budget=0 under an adversarial schedule)
        may have zero commits and must not divide by zero.
        """
        commits = self.total_commits()
        if commits == 0:
            return 0.0
        return self.total_stm_commits() / commits
