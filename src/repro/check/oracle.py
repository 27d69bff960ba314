"""The repair oracle: every commit replayed against the serial state.

RETCON's correctness argument (paper §1, §4) is that the commit-time
repair — re-deriving buffered stores and register values from freshly
reacquired inputs via symbolic expressions and constraints — produces
exactly the state that *re-executing* the transaction at its commit
point would produce (other TM systems claim it with nothing to
repair).  The oracle checks that claim, full serializability, with one
replay per commit:

1. When the run starts, the oracle copies the initial memory: the
   *serial state* (:meth:`RepairOracle.start`).  Every simulated store
   is inside a transaction, so the serial state is the initial memory
   plus every commit's replayed stores, in commit order.
2. When a transaction attempt starts, the oracle records its program
   and initial register snapshot, counts the attempt, and hands the
   core the list it appends each executed pc to
   (:meth:`RepairOracle.on_txn_begin`).
3. At pre-commit, once the commit's
   :class:`~repro.core.engine.CommitPlan` exists (RETCON's validated
   repair plan, a lazy or STM write buffer's runs, or an eager
   commit's empty plan), the oracle replays the recorded program with
   a reference interpreter (:mod:`repro.check.replay`) against the
   serial state, then writes the replay's stores into it.
4. It asserts, byte for byte: the replayed control-flow path matches
   the executed one (the constraint set really did pin every branch),
   every byte the replay stored is the byte the commit leaves behind,
   no drained byte lacks a replayed store, every register repair
   matches the replayed register, and — after the core applies the
   repairs — the full architectural register file matches the replay.
5. When the run ends, the machine's memory must equal the serial
   state (:meth:`RepairOracle.finish`), outside the STM metadata
   region.

Divergences become structured :class:`OracleViolation` reports with
core/transaction/expression context; the first :data:`MAX_VIOLATIONS`
are stored, the rest only counted.

The oracle is pull-free: it holds no reference to the machine and is
driven entirely by the hooks above; every commit hands it the same
record through :meth:`repro.htm.system.BaseTMSystem._check_commit` —
a :class:`~repro.core.engine.CommitPlan`, memory, and the undo
pre-images of the committer's dependents in dependence order.
Forwarding is why: a *dependent* (it consumed the committer's
uncommitted data) that overwrote a byte the committer stored eagerly
logged the committed value as its pre-image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.check.golden import diff_memories
from repro.check.replay import (
    ReplayLimitExceeded,
    ReplayResult,
    replay_program,
)
from repro.isa.program import Program
from repro.mem.address import block_of
from repro.mem.memory import MainMemory

#: violations a run stores in full; later ones are only counted
MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class OracleViolation:
    """One detected divergence between repair and replay."""

    #: control-flow | store-drain | phantom-store | register-repair |
    #: register-final | replay-error | final-memory (core -1)
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

    def __init__(self) -> None:
        self.violations: list[OracleViolation] = []
        #: violations beyond :data:`MAX_VIOLATIONS` are counted, not stored
        self.suppressed = 0
        self.checked_commits = 0
        #: transaction attempts started, restarts included
        self.attempts = 0
        #: violation kind -> count, stored and suppressed alike
        self._by_kind: dict[str, int] = {}
        self._records: dict[int, _TxnRecord] = {}
        #: the initial memory plus every replayed commit's stores
        self._serial: Optional[MainMemory] = None

    def start(self, memory: MainMemory) -> None:
        """The run starts from *memory*: copy it as the serial state."""
        self._serial = memory.clone()

    def finish(self, memory: MainMemory) -> None:
        """The run ended: *memory* must equal the serial state."""
        _, blocks, nbytes, samples = diff_memories(self._serial, memory)
        if nbytes:
            self._report(
                "final-memory", -1, "-", bytes=nbytes, blocks=blocks,
                sample_addrs=[hex(a) for a in samples[:4]],
            )

    # ------------------------------------------------------------------
    # Recording hooks (driven by the core)
    # ------------------------------------------------------------------
    def on_txn_begin(
        self, core: int, program: Program, label: str, regs: list[int]
    ) -> list[int]:
        """A transaction attempt started (also called on restart).
        Returns the attempt's executed-pc list: the core appends the
        pc of every instruction it completes."""
        self.attempts += 1
        record = _TxnRecord(program=program, label=label, regs0=list(regs))
        self._records[core] = record
        return record.pc_trace

    def on_abort(self, core: int) -> None:
        """The attempt died; discard its recording."""
        self._records.pop(core, None)

    # ------------------------------------------------------------------
    # Commit-time checks (driven by the TM system / core)
    # ------------------------------------------------------------------
    def check_commit(
        self, core, plan, memory, pre_images, engine=None
    ) -> None:
        """Replay the committing transaction and diff it against *plan*.

        Called by the TM system once per commit, after its last point
        to stall or abort and before any store drains.  The replay
        reads the serial state; its stores then join it.  *memory* is
        the architectural memory at that instant, and *pre_images*
        are the undo-log pre-images (byte addr -> byte) of the
        committer's dependents, in dependence order.  *engine* (the
        source of any register repairs in *plan*) only adds the
        symbolic expression behind a diverging value to the report.
        """
        record = self._records.get(core)
        if record is None:
            return  # system used without core recording hooks
        self.checked_commits += 1
        try:
            replay = replay_program(
                record.program, record.regs0, self._serial.read_bytes
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
        # replayed value once the plan drains, and every planned byte
        # must have a replayed store behind it.  A byte outside the
        # plan was written eagerly: a dependent that overwrote it
        # logged the committed value (first hit wins), otherwise it is
        # in memory.
        overlay = replay.overlay
        plan_bytes: dict[int, int] = {}
        for addr, size, value in plan.stores:
            plan_bytes.update(zip(
                range(addr, addr + size),
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"),
            ))
        eager: dict[int, int] = {}
        for image in reversed(pre_images):
            eager.update(image)

        for addr, byte in overlay.items():
            final = plan_bytes.get(addr)
            if final is None:
                final = eager.get(addr)
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
                    sym=_ssb_sym(engine, addr),
                )
        for addr, byte in plan_bytes.items():
            if addr not in overlay:
                self._report(
                    "phantom-store",
                    core,
                    record.label,
                    addr=addr,
                    block=block_of(addr),
                    committed_byte=byte,
                    sym=_ssb_sym(engine, addr),
                )
        self._serial.write_byte_map(overlay)

    def on_committed(self, core: int, regs: list[int]) -> None:
        """The commit succeeded and register repairs were applied:
        the full architectural register file must match the replay."""
        record = self._records.pop(core, None)
        if record is None or record.replay is None:
            return
        if regs == record.replay.regs:
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
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(violation)
        else:
            self.suppressed += 1

    @property
    def total_violations(self) -> int:
        return len(self.violations) + self.suppressed

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def summary(self) -> dict:
        return {
            "checked_commits": self.checked_commits,
            "violations": self.total_violations,
            "by_kind": dict(self._by_kind),
        }


def _ssb_sym(engine, addr: int) -> Optional[str]:
    """The symbolic expression of the last SSB entry covering *addr*,
    for a store report: built only when one is made."""
    sym = None
    if engine is not None:
        for entry in engine.ssb.entries():
            if entry.addr <= addr < entry.end:
                sym = repr(entry.sym)
    return sym


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
