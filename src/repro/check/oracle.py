"""The repair oracle: replay-based validation of every commit.

RETCON's correctness argument (paper §1, §4) is that the commit-time
repair — re-deriving buffered stores and register values from freshly
reacquired inputs via symbolic expressions and constraints — produces
exactly the state that *re-executing* the transaction against those
inputs would produce (other TM systems claim it with nothing to
repair).  The oracle checks that equivalence on every commit it sees:

1. While a transaction runs, the core records its program, its
   initial register snapshot, and the executed instruction trace
   (:meth:`RepairOracle.on_txn_begin` / :meth:`~RepairOracle.on_instruction`).
2. At pre-commit, once the commit's
   :class:`~repro.core.engine.CommitPlan` exists (RETCON's validated
   repair plan, a lazy or STM write buffer's runs, or an eager
   commit's empty plan), the oracle replays the recorded program with
   a reference interpreter (:mod:`repro.check.replay`) against the
   commit-time memory image: reacquired blocks read their fresh
   values, bytes an active transaction wrote eagerly read the first
   undo-log pre-image that holds them, everything else reads
   architectural memory.
3. It then asserts, byte for byte: the replayed control-flow path
   matches the executed one (the constraint set really did pin every
   branch), every buffered store drains the value the replay computed,
   no drained byte lacks a replayed store, every register repair
   matches the replayed register, and — after the core applies the
   repairs — the full architectural register file matches the replay.

Divergences become structured :class:`OracleViolation` reports with
core/transaction/expression context; ``strict=True`` escalates the
first one to an :class:`OracleError`.

The oracle is pull-free: it holds no reference to the machine and is
driven entirely by the hooks above; every commit hands it the same
record through :meth:`repro.htm.system.BaseTMSystem._check_commit` —
a :class:`~repro.core.engine.CommitPlan`, memory, and the undo
pre-images to read through, the committer's first, then its
dependents' in dependence order.  Forwarding is why: a *dependent* (it
consumed the committer's uncommitted data) that overwrote a byte the
committer stored eagerly logged the committed value as its pre-image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.check.replay import (
    ReplayLimitExceeded,
    ReplayResult,
    replay_program,
)
from repro.isa.program import Program
from repro.mem.address import block_of


@dataclass(frozen=True)
class OracleViolation:
    """One detected divergence between repair and replay."""

    #: control-flow | store-drain | phantom-store | register-repair |
    #: register-final | replay-error
    kind: str
    core: int
    txn_label: str
    #: expression/address context: expected/actual values, addresses,
    #: instruction indices, symbolic expression reprs, ...
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return (
            f"[core {self.core} txn={self.txn_label}] {self.kind}: {extra}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "core": self.core,
            "txn_label": self.txn_label,
            "detail": {k: repr(v) for k, v in self.detail.items()},
        }


class OracleError(AssertionError):
    """Raised in strict mode on the first violation."""

    def __init__(self, violation: OracleViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class _TxnRecord:
    """What the oracle remembers about one in-flight transaction."""

    program: Program
    label: str
    regs0: list[int]
    pc_trace: list[int] = field(default_factory=list)
    replay: Optional[ReplayResult] = None


class RepairOracle:
    """Validates every observed commit against a replay."""

    def __init__(
        self,
        strict: bool = False,
        max_violations: int = 100,
        replay_max_steps: int = 1_000_000,
    ) -> None:
        self.strict = strict
        self.max_violations = max_violations
        self.replay_max_steps = replay_max_steps
        self.violations: list[OracleViolation] = []
        #: violations beyond ``max_violations`` are counted, not stored
        self.suppressed = 0
        self.checked_commits = 0
        self._records: dict[int, _TxnRecord] = {}

    # ------------------------------------------------------------------
    # Recording hooks (driven by the core)
    # ------------------------------------------------------------------
    def on_txn_begin(
        self, core: int, program: Program, label: str, regs: list[int]
    ) -> None:
        """A transaction attempt started (also called on restart)."""
        self._records[core] = _TxnRecord(
            program=program, label=label, regs0=list(regs)
        )

    def on_instruction(self, core: int, pc: int) -> None:
        """The core completed the instruction at *pc*."""
        record = self._records.get(core)
        if record is not None:
            record.pc_trace.append(pc)

    def on_abort(self, core: int) -> None:
        """The attempt died; discard its recording."""
        self._records.pop(core, None)

    # ------------------------------------------------------------------
    # Commit-time checks (driven by the TM system / core)
    # ------------------------------------------------------------------
    def check_commit(
        self, core, plan, memory, pre_images, dependents=0, engine=None
    ) -> None:
        """Replay the committing transaction and diff it against *plan*.

        Called by the TM system at the last point its commit can still
        stall or abort, before any store drains.  *memory* is the
        architectural memory at that instant: reacquired blocks hold
        their fresh values and the buffered stores have not drained
        yet.  *pre_images* are the undo-log pre-images (byte addr ->
        byte) of every active transaction: the committer's, then the
        next *dependents* (its dependents', in dependence order), then
        the rest; each byte reads from the first that holds it.  *engine*
        (the source of any register repairs in *plan*) only adds the
        symbolic expression behind a diverging value to the report.
        """
        record = self._records.get(core)
        if record is None:
            return  # system used without core recording hooks
        self.checked_commits += 1

        # First hit wins, so merge the last first.  A dependent's
        # pre-image of a byte the committer stored eagerly is the
        # committed value.
        image: dict[int, int] = {}
        eager: dict[int, int] = {}
        for i in reversed(range(len(pre_images))):
            image.update(pre_images[i])
            if 0 < i <= dependents:
                eager.update(pre_images[i])

        def read_fn(addr: int, size: int) -> bytes:
            raw = bytearray(memory.read_bytes(addr, size))
            if image:
                for i in range(size):
                    byte = image.get(addr + i)
                    if byte is not None:
                        raw[i] = byte
            return bytes(raw)

        try:
            replay = replay_program(
                record.program,
                record.regs0,
                read_fn,
                max_steps=self.replay_max_steps,
            )
        except (ReplayLimitExceeded, RuntimeError) as exc:
            self._report(
                "replay-error", core, record.label, error=str(exc)
            )
            return
        record.replay = replay

        # 1. Control flow: the constraint set must have pinned every
        # branch, so the replay follows the executed path exactly.
        if replay.pc_trace != record.pc_trace:
            diverge = _first_divergence(record.pc_trace, replay.pc_trace)
            self._report(
                "control-flow",
                core,
                record.label,
                executed_len=len(record.pc_trace),
                replayed_len=len(replay.pc_trace),
                first_divergence=diverge,
            )

        # 2. Register repairs: each repaired value must equal the
        # replayed register.
        for reg, value in plan.registers:
            if replay.regs[reg] != value:
                self._report(
                    "register-repair",
                    core,
                    record.label,
                    reg=reg,
                    repaired=value,
                    replayed=replay.regs[reg],
                    sym=repr(engine.sregs.get(reg)),
                )

        # 3. Stores: every byte the replay wrote must end up with the
        # replayed value once the plan drains (bytes outside the plan
        # were written eagerly and are in memory or *eager*), and every
        # planned byte must have a replayed store behind it.
        plan_bytes: dict[int, int] = {}
        plan_syms: dict[int, str] = {}
        for addr, size, value in plan.stores:
            mask = (1 << (8 * size)) - 1
            for i, byte in enumerate(
                (value & mask).to_bytes(size, "little")
            ):
                plan_bytes[addr + i] = byte
        if engine is not None:
            for entry in engine.ssb.entries():
                for a in range(entry.addr, entry.end):
                    plan_syms[a] = repr(entry.sym)

        for addr, byte in replay.overlay.items():
            final = plan_bytes.get(addr, eager.get(addr))
            if final is None:
                final = memory.read_bytes(addr, 1)[0]
            if final != byte:
                self._report(
                    "store-drain",
                    core,
                    record.label,
                    addr=addr,
                    block=block_of(addr),
                    committed_byte=final,
                    replayed_byte=byte,
                    sym=plan_syms.get(addr),
                )
        for addr, byte in plan_bytes.items():
            if addr not in replay.overlay:
                self._report(
                    "phantom-store",
                    core,
                    record.label,
                    addr=addr,
                    block=block_of(addr),
                    committed_byte=byte,
                    sym=plan_syms.get(addr),
                )

    def on_committed(self, core: int, regs: list[int]) -> None:
        """The commit succeeded and register repairs were applied:
        the full architectural register file must match the replay."""
        record = self._records.pop(core, None)
        if record is None or record.replay is None:
            return
        for reg, replayed in enumerate(record.replay.regs):
            if regs[reg] != replayed:
                self._report(
                    "register-final",
                    core,
                    record.label,
                    reg=reg,
                    committed=regs[reg],
                    replayed=replayed,
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, kind: str, core: int, label: str, **detail) -> None:
        violation = OracleViolation(
            kind=kind, core=core, txn_label=label, detail=detail
        )
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.suppressed += 1
        if self.strict:
            raise OracleError(violation)

    @property
    def total_violations(self) -> int:
        return len(self.violations) + self.suppressed

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def summary(self) -> dict:
        by_kind: dict[str, int] = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return {
            "checked_commits": self.checked_commits,
            "violations": self.total_violations,
            "by_kind": by_kind,
        }


def _first_divergence(
    executed: list[int], replayed: list[int]
) -> Optional[tuple[int, Optional[int], Optional[int]]]:
    """(index, executed pc, replayed pc) at the first mismatch."""
    for i in range(max(len(executed), len(replayed))):
        a = executed[i] if i < len(executed) else None
        b = replayed[i] if i < len(replayed) else None
        if a != b:
            return (i, a, b)
    return None
