"""The in-order core: an ISA interpreter with transactional hooks.

Each core executes its :class:`~repro.sim.script.ThreadScript` one
instruction per :meth:`Core.step`, charging 1 cycle per instruction
plus memory latency (1 IPC in-order, Table 1).  All memory operations
go through the TM system; the core handles the control-flow signals
(:class:`StallRetry`, :class:`TxnAborted`, remote dooming) and
attributes cycles to the busy/conflict/barrier/other buckets.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.buffers import ConditionCodes
from repro.htm.events import StallRetry, TxnAborted
from repro.htm.system import BaseTMSystem
from repro.isa.instructions import Reg
from repro.isa.registers import RegisterFile
import repro.sim.decode  # noqa: F401  -- gives Instruction run_plain/run_sym
from repro.sim.script import Barrier, ThreadScript, Txn, Work
from repro.sim.stats import CoreStats

#: Cycles a stalled requester waits before re-attempting a conflicting
#: access; consecutive stalls double it up to 16x.
STALL_RETRY_CYCLES = 20


class CoreState(enum.Enum):
    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class Core:
    """One simulated in-order processor."""

    __slots__ = (
        "cid",
        "system",
        "stats",
        "items",
        "engine",
        "cc",
        "regs",
        "cycle",
        "state",
        "item_idx",
        "pc",
        "in_txn",
        "restarting",
        "attempt_busy",
        "attempt_conflict",
        "attempt_stall_events",
        "attempt_start",
        "consecutive_aborts",
        "consecutive_stalls",
        "_txn_regs",
        "_pc_trace",
        "program",
        "_burst_env",
    )

    def __init__(
        self,
        cid: int,
        system: BaseTMSystem,
        stats: CoreStats,
        script: ThreadScript,
    ) -> None:
        self.cid = cid
        self.system = system
        self.stats = stats
        self.items = list(script.items)
        self.engine = system.engine(cid)
        self.cc = self.engine.cc if self.engine is not None else (
            ConditionCodes()
        )
        self.regs = RegisterFile()
        self.cycle = 0
        self.state = CoreState.RUNNING
        self.item_idx = 0
        # Transaction-attempt state.
        self.pc = 0
        self.in_txn = False
        self.restarting = False
        self.attempt_busy = 0
        # Conflict cycles / stall events of the current attempt, kept
        # core-local and flushed to CoreStats at commit or abort (every
        # attempt ends in one of the two before the run can finish).
        self.attempt_conflict = 0
        self.attempt_stall_events = 0
        self.attempt_start = 0
        self.consecutive_aborts = 0
        self.consecutive_stalls = 0
        self._txn_regs: Optional[list[int]] = None
        # The attached oracle's executed-pc list for the current attempt.
        self._pc_trace: Optional[list[int]] = None
        # The current transaction's program: Halt reads its length
        # (see repro.sim.decode).
        self.program = None
        # Burst-invariant environment, recomputed at each run_until
        # call that finds it unset; the machine clears it at run start
        # (observers like tracers attach between construction and run).
        self._burst_env: Optional[tuple] = None

    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self.state is CoreState.DONE

    def current_item(self):
        if self.item_idx >= len(self.items):
            return None
        return self.items[self.item_idx]

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one scheduling step, advancing ``self.cycle``: a
        burst whose stop pair the core has already reached."""
        self.run_until(self.cycle, -1, self.cycle)

    # ------------------------------------------------------------------
    def run_until(self, stop_cycle: int, stop_cid: int, watchdog: int) -> None:
        """Execute scheduling steps until overtaken, parked, or done.

        This is the event-driven scheduler's burst loop: the machine
        pops this core as the (cycle, cid) minimum and lets it run
        *consecutive* steps for as long as it would remain the minimum,
        i.e. while ``(self.cycle, self.cid) < (stop_cycle, stop_cid)``
        where the stop pair is the next wakeup event in the machine's
        queue.  With the stop pair ``(self.cycle, -1)`` — already
        reached, which is how :meth:`step` and the machine's
        ``lockstep`` spelling call this — every one of these steps is
        its own pop of the same core, so the global step order, and
        therefore every stat, trace event, and memory image, is
        identical; bursting only removes the heap churn and re-dispatch.

        At least one step always executes per call, and the watchdog
        is only consulted *between* steps (``cycle > watchdog`` ends
        the burst so the machine raises with the same makespan however
        the steps were grouped).
        """
        env = self._burst_env
        if env is None:
            env = self._prime_burst()
        (
            oracle,
            traced,
            system,
            cid,
            regs,
            items,
            nitems,
            stats,
            ctx,
            symbolic,
        ) = env
        while True:
            idx = self.item_idx
            if idx >= nitems:
                self.state = CoreState.DONE
                return
            item = items[idx]

            if isinstance(item, Txn):
                program = self.program = item.program
                instructions = program.instructions
                n = len(instructions)
                # Keep the two per-step accumulators in locals for the
                # duration of the burst, syncing with the attributes
                # around every out-of-line call that reads or writes
                # them (_handle_abort, _try_commit, _charge_stall) and
                # on every exit.  Trace events read the core clock
                # mid-step, so traced runs also sync before each
                # handler call.  An attached oracle is told about each
                # attempt's start and hands back a list the core appends
                # each completed pc to; nothing else differs in a
                # checked run.
                cycle = self.cycle
                busy = self.attempt_busy
                while True:
                    # ---- one scheduling step ----
                    if not self.in_txn:
                        system.begin(cid, restart=self.restarting)
                        self.restarting = False
                        self.in_txn = True
                        self.pc = 0
                        busy = 0
                        self.attempt_busy = 0
                        self.attempt_conflict = 0
                        self.attempt_stall_events = 0
                        self.attempt_start = cycle
                        self._txn_regs = list(regs)
                        if oracle is not None:
                            self._pc_trace = oracle.on_txn_begin(
                                cid, program, item.label, self._txn_regs
                            )

                    # system.poll_doomed(cid), inlined.
                    if ctx.doomed and ctx.active:
                        ctx.doomed = False
                        ctx.active = False
                        self.cycle = cycle
                        self.attempt_busy = busy
                        self._handle_abort()
                        cycle = self.cycle
                        busy = self.attempt_busy
                        if cycle > watchdog or cycle > stop_cycle or (
                            cycle == stop_cycle and cid > stop_cid
                        ):
                            return
                        continue

                    pc = self.pc
                    if pc >= n:
                        self.cycle = cycle
                        self.attempt_busy = busy
                        self._try_commit()
                        cycle = self.cycle
                        busy = self.attempt_busy
                        if cycle > watchdog or cycle > stop_cycle or (
                            cycle == stop_cycle and cid > stop_cid
                        ):
                            return
                        if self.item_idx != idx:
                            break  # committed: next script item
                        continue

                    if traced:
                        self.cycle = cycle
                    try:
                        inst = instructions[pc]
                        if symbolic:
                            latency = inst.run_sym(self, regs)
                        else:
                            latency = inst.run_plain(self, regs)
                    except StallRetry as stall:
                        self.cycle = cycle
                        self.attempt_busy = busy
                        self._charge_stall(stall)
                        cycle = self.cycle
                        if cycle > watchdog or cycle > stop_cycle or (
                            cycle == stop_cycle and cid > stop_cid
                        ):
                            return
                    except TxnAborted:
                        self.cycle = cycle
                        self.attempt_busy = busy
                        self._handle_abort()
                        cycle = self.cycle
                        busy = self.attempt_busy
                        if cycle > watchdog or cycle > stop_cycle or (
                            cycle == stop_cycle and cid > stop_cid
                        ):
                            return
                    else:
                        if oracle is not None:
                            self._pc_trace.append(pc)
                        self.consecutive_stalls = 0
                        busy += latency
                        cycle += latency
                        if cycle > watchdog or cycle > stop_cycle or (
                            cycle == stop_cycle and cid > stop_cid
                        ):
                            self.cycle = cycle
                            self.attempt_busy = busy
                            return
                        continue

            elif isinstance(item, Work):
                cycles = item.cycles
                c = self.cycle + cycles
                self.cycle = c
                stats.busy += cycles
                self.item_idx = idx + 1
                if c > watchdog or c > stop_cycle or (
                    c == stop_cycle and cid > stop_cid
                ):
                    return

            else:
                assert isinstance(item, Barrier)
                # The machine releases us; we just park.
                self.state = CoreState.AT_BARRIER
                return

    def _prime_burst(self) -> tuple:
        """Compute the burst-invariant environment for run_until.

        Everything here is fixed for the duration of one machine run:
        observers (oracle, tracer, metrics) attach before the scheduler
        loop starts, and the register-value list, script items,
        context, and stats objects are stable for the core's lifetime.
        The machine resets the cache at run start so observers attached
        between runs are honored.
        """
        system = self.system
        env = (
            system.oracle,
            system.tracer is not None,
            system,
            self.cid,
            self.regs.values,
            self.items,
            len(self.items),
            self.stats,
            system.ctx[self.cid],
            self.engine is not None and self.engine.symbolic_arithmetic,
        )
        self._burst_env = env
        return env

    def _charge_stall(self, stall_info: StallRetry) -> None:
        """Wait before retrying a conflicting access.

        The retry interval backs off exponentially (capped) so a core
        stalled behind a long transaction polls progressively less
        often; the waited cycles count as conflict time either way.
        """
        stalls = self.consecutive_stalls + 1
        self.consecutive_stalls = stalls
        # Doubles per consecutive stall up to 16x (320 cycles).
        stall = STALL_RETRY_CYCLES << (stalls - 1 if stalls < 5 else 4)
        self.cycle += stall
        self.attempt_conflict += stall
        self.attempt_stall_events += 1
        if self.system.tracer is not None:
            self.system._trace(
                "stall", self.cid, {"cycles": stall, "block": stall_info.block}
            )

    def _try_commit(self) -> None:
        try:
            latency, plan = self.system.commit(self.cid)
        except StallRetry as stall:
            self._charge_stall(stall)
            return
        except TxnAborted:
            self._handle_abort()
            return
        self.consecutive_stalls = 0
        for reg, value in plan.registers:
            self.regs.write(Reg(reg), value)
        if self.system.oracle is not None:
            self.system.oracle.on_committed(self.cid, self.regs.snapshot())
        self.consecutive_aborts = 0
        label = self.items[self.item_idx].label
        self.stats.label_commits[label] = (
            self.stats.label_commits.get(label, 0) + 1
        )
        self.cycle += latency
        self.stats.other += latency
        self.stats.busy += self.attempt_busy
        self._flush_conflict_stats()
        duration = self.cycle - self.attempt_start
        # record_txn pairs with the TM system's pre-commit sample.
        self.system.stats.record_txn(self.cid, duration, latency)
        self.in_txn = False
        self.item_idx += 1
        self.pc = 0

    def _flush_conflict_stats(self) -> None:
        """Flush the attempt-local conflict accumulators (txn boundary)."""
        self.stats.conflict += self.attempt_conflict
        self.stats.stall_events += self.attempt_stall_events
        self.attempt_conflict = 0
        self.attempt_stall_events = 0

    def _handle_abort(self) -> None:
        """The current attempt is dead: charge it to conflict time and
        restart the transaction (zero-cycle rollback)."""
        if self.system.oracle is not None:
            self.system.oracle.on_abort(self.cid)
        self.stats.conflict += self.attempt_busy
        item = self.current_item()
        if item is not None and hasattr(item, "label"):
            self.stats.label_aborts[item.label] = (
                self.stats.label_aborts.get(item.label, 0) + 1
            )
        self.attempt_busy = 0
        if self._txn_regs is not None:
            self.regs.restore(self._txn_regs)
        # Rollback itself is zero-cycle (paper §2), but the request that
        # discovered the conflict still took a cycle, and repeated
        # aborts back off (with a per-core skew that breaks the
        # symmetric dueling-upgrades livelock of abort-heavy policies).
        self.consecutive_stalls = 0
        self.consecutive_aborts += 1
        backoff = min(
            400, (self.consecutive_aborts - 1) * (9 + self.cid % 13)
        )
        restart = 1 + backoff
        self.cycle += restart
        self.attempt_conflict += restart
        self._flush_conflict_stats()
        self.in_txn = False
        self.restarting = True
        self.pc = 0
