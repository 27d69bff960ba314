"""The multicore machine: cores + scheduler + barrier coordination.

Scheduling is deterministic: the runnable core with the smallest local
cycle count (ties broken by core id) executes one step.  This
interleaves cores at instruction granularity while keeping every TM
operation atomic, which is how the paper's sequentially-consistent
simulator behaves from the protocol's point of view.

One loop implements that policy, with two spellings of how long a
popped core may run:

* ``event`` (default) — an event-driven wakeup queue.  Each heap entry
  is a wakeup event ``(cycle, cid)``; the popped core *bursts* through
  consecutive steps via :meth:`repro.sim.cpu.Core.run_until` for as
  long as it stays strictly ahead of the queue's next event, so a core
  sleeping through a long memory latency, stall backoff, or barrier
  wait costs one heap operation instead of one per step.  Because a
  burst ends the moment the core would no longer be the (cycle, cid)
  minimum, the executed global step order is *identical* to lockstep —
  cycle skipping is a scheduling transform, not a semantic one.
* ``lockstep`` — the same loop with every burst cut after one step
  (the policy above, literally), kept as a test-only spelling for
  differential testing: it is what shows a burst doing something a
  step sequence would not.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.coherence.directory import CoherenceFabric
from repro.htm.backends import build_system
from repro.htm.system import BaseTMSystem
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.cpu import Core, CoreState
from repro.sim.script import ThreadScript
from repro.sim.stats import MachineStats


class SimulationTimeout(RuntimeError):
    """The run exceeded the cycle watchdog (livelock guard)."""

    def __init__(
        self,
        message: str,
        label: str | None = None,
        makespan: int | None = None,
    ) -> None:
        if label:
            message = f"{message} [{label}]"
        super().__init__(message)
        self.label = label
        #: global makespan at the moment the watchdog fired (None for
        #: the scheduler-starvation error)
        self.makespan = makespan


@dataclass
class RunResult:
    """Outcome of one simulation."""

    cycles: int
    stats: MachineStats
    memory: MainMemory
    system_name: str
    #: the :class:`repro.check.oracle.RepairOracle` that watched the
    #: run, when the machine was built with ``check=``
    oracle: "object | None" = None

    @property
    def commits(self) -> int:
        return self.stats.total_commits()

    @property
    def aborts(self) -> int:
        return self.stats.total_aborts()


class Machine:
    """An N-core machine executing one script per core."""

    def __init__(
        self,
        config: MachineConfig,
        system_name: str,
        scripts: list[ThreadScript],
        memory: MainMemory,
        label: str | None = None,
        check: "bool | object | None" = None,
        tracer: "object | None" = None,
        metrics: "object | None" = None,
        scheduler: str = "event",
    ) -> None:
        if len(scripts) > config.ncores:
            raise ValueError(
                f"{len(scripts)} scripts but only {config.ncores} cores"
            )
        if scheduler not in ("event", "lockstep"):
            raise ValueError(f"unknown scheduler: {scheduler!r}")
        self.scheduler = scheduler
        self.config = config
        #: free-form context (workload/system/...) echoed in timeouts
        self.label = label or system_name
        self.memory = memory
        self.stats = MachineStats(config.ncores)
        self.fabric = CoherenceFabric(config, config.ncores)
        self.system: BaseTMSystem = build_system(
            system_name, config, memory, self.fabric, self.stats
        )
        # Pad with empty scripts so every core exists.
        padded = scripts + [
            ThreadScript() for _ in range(config.ncores - len(scripts))
        ]
        self.cores = [
            Core(cid, self.system, self.stats.core(cid), script)
            for cid, script in enumerate(padded)
        ]
        if tracer is not None:
            self.system.tracer = tracer
        self.metrics = metrics
        if metrics is not None:
            self.system.bind_metrics(metrics)
            self.stats.bind_metrics(metrics)
        # check=True attaches a fresh repair oracle; pass a configured
        # RepairOracle instance for strict mode / custom limits.
        self.oracle = None
        if check:
            if check is True:
                from repro.check.oracle import RepairOracle

                check = RepairOracle()
            self.oracle = check
            self.system.oracle = check

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 500_000_000) -> RunResult:
        """Run every core to completion; return the results."""
        heap: list[tuple[int, int]] = []
        for core in self.cores:
            if core.current_item() is None:
                core.state = CoreState.DONE
            else:
                heapq.heappush(heap, (core.cycle, core.cid))
        if self.system.tracer is not None:
            # At run start, so a tracer attached later is stamped too.
            self.system._trace = self._stamping_trace()

        self._run_event(heap, max_cycles)

        final_makespan = max(core.cycle for core in self.cores)
        if self.metrics is not None:
            from repro.obs.collect import collect_machine

            collect_machine(self.metrics, self, final_makespan)
        return RunResult(
            cycles=final_makespan,
            stats=self.stats,
            memory=self.memory,
            system_name=self.system.name,
            oracle=self.oracle,
        )

    def _run_event(self, heap: list[tuple[int, int]], max_cycles: int) -> None:
        """Event-driven scheduler: pop a wakeup event, burst the core.

        The popped core is the global (cycle, cid) minimum; it runs
        until the next queued wakeup would overtake it (see
        :meth:`Core.run_until`), then re-arms its own wakeup at its new
        cycle.  Stall backoffs, memory latencies, and commit charges
        all advance ``core.cycle`` before the burst ends, so the
        re-armed event *is* the layer-reported release cycle — no
        per-cycle polling of blocked cores remains.

        ``lockstep`` stops every burst at the popped core's own cycle
        with stop cid -1 — below every core's, so even a zero-latency
        step (a free commit) ends the burst — which is one step per pop.

        The popped core stays at the root while it runs: the next event
        is the smaller of the root's two children, and re-arming is one
        ``heapreplace`` sift.  Each core has one entry, so the
        ``(cycle, cid)`` keys are unique and the pop order is the one
        ``heappop`` + ``heappush`` would give.
        """
        cores = self.cores
        ncores = len(cores)
        lockstep = self.scheduler == "lockstep"
        replace = heapq.heapreplace
        pop = heapq.heappop
        for core in cores:
            # Recompute burst-invariant state (observers may have been
            # attached since the previous run).
            core._burst_env = None
        # Track the global makespan incrementally: a core that retires
        # with a huge cycle count (or one spinning while the rest sit
        # at the barrier) must trip the watchdog even though it never
        # re-enters the heap.
        makespan = 0
        barrier_waiters: list[Core] = []
        while heap or barrier_waiters:
            if makespan > max_cycles:
                self._raise_watchdog(makespan, max_cycles)
            if not heap:
                self._release_barrier(barrier_waiters, heap)
                continue
            cycle, cid = heap[0]
            core = cores[cid]
            queued = len(heap)
            if lockstep:
                stop_cycle, stop_cid = cycle, -1
            elif queued > 2:
                left, right = heap[1], heap[2]
                stop_cycle, stop_cid = left if left < right else right
            elif queued == 2:
                stop_cycle, stop_cid = heap[1]
            else:
                # Alone in the queue: run to the next park/finish; the
                # watchdog bound still ends runaway bursts.
                stop_cycle, stop_cid = max_cycles, ncores
            core.run_until(stop_cycle, stop_cid, max_cycles)
            if core.cycle > makespan:
                makespan = core.cycle
            if core.state is CoreState.RUNNING:
                replace(heap, (core.cycle, cid))
                continue
            pop(heap)
            if core.state is CoreState.AT_BARRIER:
                barrier_waiters.append(core)
                if len(barrier_waiters) + self._done_count() == ncores:
                    self._release_barrier(barrier_waiters, heap)

    def _raise_watchdog(self, makespan: int, max_cycles: int) -> None:
        raise SimulationTimeout(
            f"makespan {makespan} exceeded the "
            f"{max_cycles}-cycle watchdog",
            label=self.label,
            makespan=makespan,
        )

    def _stamping_trace(self):
        """The TM system's trace callable: stamp the core's clock, then
        its transaction's label, into *detail* where unset; record it."""
        cores, record = self.cores, self.system.tracer.record

        def trace(kind: str, cid: int, detail: dict) -> None:
            core = cores[cid]
            if "cycle" not in detail:
                detail["cycle"] = core.cycle
            items, idx = core.items, core.item_idx
            if idx < len(items) and "label" not in detail:
                label = getattr(items[idx], "label", None)
                if label is not None:
                    detail["label"] = label
            record(kind, cid, detail)

        return trace

    def _done_count(self) -> int:
        return sum(1 for core in self.cores if core.done())

    def _release_barrier(
        self, waiters: list[Core], heap: list[tuple[int, int]]
    ) -> None:
        """All live cores reached the barrier: release them together."""
        if not waiters:
            raise SimulationTimeout(
                "scheduler empty with no barrier waiters",
                label=self.label,
            )
        release = max(core.cycle for core in waiters)
        for core in waiters:
            core.stats.barrier += release - core.cycle
            core.cycle = release
            core.state = CoreState.RUNNING
            core.item_idx += 1  # move past the Barrier item
            heapq.heappush(heap, (core.cycle, core.cid))
        waiters.clear()
