"""The architectural register file."""

from __future__ import annotations

from repro.isa.instructions import Reg

NUM_REGS = 16
"""Number of architectural general-purpose registers."""

# Convenient names for use in hand-written programs and tests.
R0, R1, R2, R3, R4, R5, R6, R7 = (Reg(i) for i in range(8))
R8, R9, R10, R11, R12, R13, R14, R15 = (Reg(i) for i in range(8, 16))


class RegisterFile:
    """Concrete architectural register state for one core.

    Values are plain Python integers (the simulator does not model
    64-bit wraparound in registers; memory accesses truncate to the
    access size, which is where width matters for the workloads).
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values = [0] * NUM_REGS

    def read(self, reg: Reg) -> int:
        return self.values[reg]

    def write(self, reg: Reg, value: int) -> None:
        self.values[reg] = value

    def snapshot(self) -> list[int]:
        """Return a copy of all register values (used by the undo log)."""
        return list(self.values)

    def restore(self, snapshot: list[int]) -> None:
        self.values[:] = snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(
            f"r{i}={v}" for i, v in enumerate(self.values) if v != 0
        )
        return f"RegisterFile({pairs})"
