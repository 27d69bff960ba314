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
from repro.isa.instructions import Reg, apply_op, evaluate_cond
from repro.isa.registers import RegisterFile
from repro.sim.decode import (
    K_BCC,
    K_BRANCH,
    K_CMP,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_MOV,
    K_MOVI,
    K_NOP,
    K_OP,
    K_STORE,
    chain_for,
    decoded_for,
)
from repro.sim.script import Barrier, ThreadScript, Txn, Work
from repro.sim.stats import CoreStats


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
        "config",
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
        "_decoded_program",
        "_decoded",
        "_chain_program",
        "_chain",
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
        self.config = system.config
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
        # Decode cache for the current transaction's program (the
        # decoded list itself is shared across cores via the Program).
        self._decoded_program = None
        self._decoded: list[tuple] = []
        # Handler-chain cache, same discipline (chains are shared
        # across cores via the Program, one variant per engine-ness).
        self._chain_program = None
        self._chain: list = []
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
        """Execute one scheduling step, advancing ``self.cycle``."""
        item = self.current_item()
        if item is None:
            self.state = CoreState.DONE
            return

        if isinstance(item, Work):
            self.cycle += item.cycles
            self.stats.busy += item.cycles
            self.item_idx += 1
            return

        if isinstance(item, Barrier):
            # The machine releases us; we just park.
            self.state = CoreState.AT_BARRIER
            return

        assert isinstance(item, Txn)
        self._step_txn(item)

    # ------------------------------------------------------------------
    def run_until(self, stop_cycle: int, stop_cid: int, watchdog: int) -> None:
        """Execute scheduling steps until overtaken, parked, or done.

        This is the event-driven scheduler's burst loop: the machine
        pops this core as the (cycle, cid) minimum and lets it run
        *consecutive* steps for as long as it would remain the minimum,
        i.e. while ``(self.cycle, self.cid) < (stop_cycle, stop_cid)``
        where the stop pair is the next wakeup event in the machine's
        queue.  Under the lockstep scheduler every one of these steps
        would have been its own pop of the same core, so the global
        step order — and therefore every stat, trace event, and memory
        image — is identical; the heap churn and re-dispatch just
        disappear.

        Exactly like the lockstep loop, at least one step always
        executes per pop, and the watchdog is only consulted *between*
        steps (``cycle > watchdog`` ends the burst so the machine can
        raise with the same makespan the lockstep scheduler reports).
        """
        env = self._burst_env
        if env is None:
            env = self._prime_burst()
        (
            use_slow,
            traced,
            system,
            cid,
            regs,
            items,
            nitems,
            stats,
            ctx,
            with_engine,
        ) = env
        if use_slow:
            # Checked runs take the reference per-step interpreter: the
            # oracle's on_instruction/on_txn_begin hooks live there.
            self._run_until_slow(stop_cycle, stop_cid, watchdog)
            return

        while True:
            idx = self.item_idx
            if idx >= nitems:
                self.state = CoreState.DONE
                return
            item = items[idx]

            if isinstance(item, Txn):
                program = item.program
                if program is not self._chain_program:
                    self._chain_program = program
                    self._chain = chain_for(program, with_engine)
                chain = self._chain
                n = len(chain)
                # Keep the two per-step accumulators in locals for the
                # duration of the burst, syncing with the attributes
                # around every out-of-line call that reads or writes
                # them (_handle_abort, _try_commit, _charge_stall) and
                # on every exit.  Trace events read the core clock
                # mid-step, so traced runs also sync before each
                # handler call.
                cycle = self.cycle
                busy = self.attempt_busy
                while True:
                    # ---- one scheduling step (== one _step_txn call) ----
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
                        latency = chain[pc](self, regs)
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
        observers (oracle, fault injector, tracer, metrics) attach
        before the scheduler loop starts, and the register-value list,
        script items, context, and stats objects are stable for the
        core's lifetime.  The machine resets the cache at run start so
        observers attached between runs are honored.
        """
        system = self.system
        env = (
            system.oracle is not None or system.fault_injector is not None,
            system.tracer is not None,
            system,
            self.cid,
            self.regs.values,
            self.items,
            len(self.items),
            self.stats,
            system.ctx[self.cid],
            self.engine is not None,
        )
        self._burst_env = env
        return env

    def _run_until_slow(
        self, stop_cycle: int, stop_cid: int, watchdog: int
    ) -> None:
        """Burst loop over the reference ``step()`` interpreter."""
        cid = self.cid
        while True:
            self.step()
            if self.state is not CoreState.RUNNING:
                return
            c = self.cycle
            if c > watchdog or c > stop_cycle or (
                c == stop_cycle and cid > stop_cid
            ):
                return

    # ------------------------------------------------------------------
    def _step_txn(self, item: Txn) -> None:
        if not self.in_txn:
            self.system.begin(self.cid, restart=self.restarting)
            self.restarting = False
            self.in_txn = True
            self.pc = 0
            self.attempt_busy = 0
            self.attempt_conflict = 0
            self.attempt_stall_events = 0
            self.attempt_start = self.cycle
            self._txn_regs = self.regs.snapshot()
            oracle = self.system.oracle
            if oracle is not None:
                oracle.on_txn_begin(
                    self.cid, item.program, item.label, self._txn_regs
                )

        doom_reason = self.system.poll_doomed(self.cid)
        if doom_reason is not None:
            self._handle_abort()
            return

        program = item.program
        if program is not self._decoded_program:
            self._decoded_program = program
            self._decoded = decoded_for(program)
        if self.pc >= len(self._decoded):
            self._try_commit()
            return

        pc_before = self.pc
        inst = self._decoded[self.pc]
        try:
            latency = self._execute(inst)
        except StallRetry as stall:
            self._charge_stall(stall)
            return
        except TxnAborted:
            self._handle_abort()
            return
        if self.system.oracle is not None:
            self.system.oracle.on_instruction(self.cid, pc_before)
        self.consecutive_stalls = 0
        self.attempt_busy += latency
        self.cycle += latency

    def _charge_stall(self, stall_info: Optional[StallRetry] = None) -> None:
        """Wait before retrying a conflicting access.

        The retry interval backs off exponentially (capped) so a core
        stalled behind a long transaction polls progressively less
        often; the waited cycles count as conflict time either way.
        """
        self.consecutive_stalls += 1
        stall = min(
            self.config.stall_retry_cycles
            * (1 << min(self.consecutive_stalls - 1, 4)),
            400,
        )
        self.cycle += stall
        self.attempt_conflict += stall
        self.attempt_stall_events += 1
        if self.system.tracer is not None:
            detail = {"cycles": stall}
            if stall_info is not None:
                detail["block"] = stall_info.block
            self.system._trace("stall", self.cid, **detail)

    def _try_commit(self) -> None:
        try:
            result = self.system.commit(self.cid)
        except StallRetry as stall:
            self._charge_stall(stall)
            return
        except TxnAborted:
            self._handle_abort()
            return
        self.consecutive_stalls = 0
        for reg, value in result.register_repairs:
            self.regs.write(Reg(reg), value)
        if self.system.oracle is not None:
            self.system.oracle.on_committed(self.cid, self.regs.snapshot())
        self.consecutive_aborts = 0
        label = self.items[self.item_idx].label
        self.stats.label_commits[label] = (
            self.stats.label_commits.get(label, 0) + 1
        )
        self.cycle += result.latency
        self.stats.other += result.latency
        self.stats.busy += self.attempt_busy
        self._flush_conflict_stats()
        duration = self.cycle - self.attempt_start
        # record_txn pairs with the TM system's pre-commit sample.
        self.system.stats.record_txn(self.cid, duration, result.latency)
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
        restart = max(1, self.config.abort_cycles) + backoff
        self.cycle += restart
        self.attempt_conflict += restart
        self._flush_conflict_stats()
        self.in_txn = False
        self.restarting = True
        self.pc = 0

    # ------------------------------------------------------------------
    # Instruction dispatch (over decoded tuples; see repro.sim.decode)
    # ------------------------------------------------------------------
    def _execute(self, inst: tuple) -> int:
        """Execute one decoded instruction; return its latency."""
        engine = self.engine
        regs = self.regs.values
        kind = inst[0]
        next_pc = self.pc + 1
        latency = 1

        if kind == K_LOAD:
            _, rd, addr, size, base, disp = inst
            if base is not None:
                # Address calculation consumes the base register: a
                # symbolic base is pinned with an equality constraint
                # (§4.2).
                if engine is not None:
                    engine.equality_constrain_sym(engine.reg_sym(base))
                addr = regs[base] + disp
            result = self.system.load(self.cid, addr, size)
            regs[rd] = result.value
            if engine is not None:
                engine.set_reg_sym(rd, result.sym)
            latency = result.latency
        elif kind == K_STORE:
            _, src_is_reg, src, addr, size, base, disp = inst
            if base is not None:
                if engine is not None:
                    engine.equality_constrain_sym(engine.reg_sym(base))
                addr = regs[base] + disp
            if src_is_reg:
                value = regs[src]
                sym = engine.reg_sym(src) if engine is not None else None
            else:
                value = src
                sym = None
            result = self.system.store(self.cid, addr, size, value, sym=sym)
            latency = result.latency
        elif kind == K_OP:
            _, op, rd, rs1, src2_is_reg, src2 = inst
            rs1_val = regs[rs1]
            src2_val = regs[src2] if src2_is_reg else src2
            regs[rd] = apply_op(op, rs1_val, src2_val)
            if engine is not None:
                engine.alu(
                    op,
                    rd,
                    engine.reg_sym(rs1),
                    engine.reg_sym(src2) if src2_is_reg else None,
                    rs1_val,
                    src2_val,
                )
        elif kind == K_MOV:
            _, rd, rs = inst
            regs[rd] = regs[rs]
            if engine is not None:
                engine.set_reg_sym(rd, engine.reg_sym(rs))
        elif kind == K_MOVI:
            _, rd, value = inst
            regs[rd] = value
            if engine is not None:
                engine.set_reg_sym(rd, None)
        elif kind == K_CMP:
            _, rs1, src2_is_reg, src2 = inst
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            if engine is not None:
                engine.on_cmp(
                    lhs,
                    rhs,
                    engine.reg_sym(rs1),
                    engine.reg_sym(src2) if src2_is_reg else None,
                )
            else:
                self.cc.set_concrete(lhs, rhs)
        elif kind == K_BRANCH:
            _, cond, rs1, src2_is_reg, src2, target = inst
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            taken = evaluate_cond(cond, lhs, rhs)
            if engine is not None:
                engine.on_branch(
                    cond,
                    engine.reg_sym(rs1),
                    engine.reg_sym(src2) if src2_is_reg else None,
                    lhs,
                    rhs,
                    taken,
                )
            if taken:
                next_pc = target
        elif kind == K_BCC:
            _, cond, target = inst
            taken = self.cc.evaluate(cond)
            if engine is not None:
                engine.on_bcc(cond, taken)
            if taken:
                next_pc = target
        elif kind == K_JUMP:
            next_pc = inst[1]
        elif kind == K_NOP:
            latency = inst[1]
        else:  # K_HALT (decode is exhaustive over instruction types)
            next_pc = inst[1]

        self.pc = next_pc
        return latency
