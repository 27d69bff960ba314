"""Instruction definitions and pure operational semantics.

Instructions are small frozen dataclasses.  Operands are either ``Reg``
(an architectural register index) or ``Imm`` (a constant).  Memory
operands are byte addresses; each memory instruction carries an access
size in bytes (1, 2, 4, or 8).

Addressing modes
----------------

``Load``/``Store`` address operands are either a concrete address
(``Imm``) or register-indirect with a constant displacement
(``Reg`` base + ``disp``).  Register-indirect addressing with a
symbolically-tracked base register is exactly the case that RETCON
cannot repair: the address calculation consumes the symbolic value, so
an equality constraint is placed on its root (paper §4.2, "Equality
constraints").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union


class Reg(int):
    """An architectural register index (0 .. NUM_REGS-1)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"r{int(self)}"


@dataclass(frozen=True)
class Imm:
    """An immediate (constant) operand."""

    value: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"#{self.value}"


Operand = Union[Reg, Imm]


class Cond(enum.Enum):
    """Branch / comparison conditions (signed semantics)."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_NEGATION = {
    Cond.EQ: Cond.NE,
    Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE,
    Cond.LE: Cond.GT,
    Cond.GT: Cond.LE,
    Cond.GE: Cond.LT,
}


def negate_cond(cond: Cond) -> Cond:
    """Return the logical negation of *cond*."""
    return _NEGATION[cond]


def evaluate_cond(cond: Cond, lhs: int, rhs: int) -> bool:
    """Evaluate ``lhs cond rhs`` with signed integer semantics."""
    if cond is Cond.EQ:
        return lhs == rhs
    if cond is Cond.NE:
        return lhs != rhs
    if cond is Cond.LT:
        return lhs < rhs
    if cond is Cond.LE:
        return lhs <= rhs
    if cond is Cond.GT:
        return lhs > rhs
    return lhs >= rhs


OPCODES = ("add", "sub", "mul", "div", "and", "or", "xor")
"""ALU opcodes supported by :class:`Op`."""

TRACKABLE_OPS = ("add", "sub")
"""ALU opcodes whose effect on a symbolic input RETCON tracks (§4.4:
symbolic computation is limited to additions and subtractions)."""


def apply_op(op: str, lhs: int, rhs: int) -> int:
    """Pure ALU semantics for :class:`Op` instructions."""
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        if rhs == 0:
            return 0  # hardware-style quiet divide-by-zero
        # Truncating division toward zero, as on real hardware.
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs < 0) == (rhs < 0) else -quotient
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    raise ValueError(f"unknown ALU opcode: {op!r}")


@dataclass(frozen=True)
class Instruction:
    """Base class for all instructions.

    The simulator (:mod:`repro.sim.decode`) gives every instruction
    its compiled handlers as ``run_plain``/``run_sym`` attributes."""


@dataclass(frozen=True)
class Load(Instruction):
    """Load ``size`` bytes into ``rd``.

    If ``base`` is ``None`` the address is the constant ``addr``;
    otherwise the effective address is ``regs[base] + disp``.
    """

    rd: Reg
    addr: int = 0
    size: int = 8
    base: Reg | None = None
    disp: int = 0


@dataclass(frozen=True)
class Store(Instruction):
    """Store ``size`` bytes of ``src`` (register or immediate)."""

    src: Operand = field(default_factory=lambda: Imm(0))
    addr: int = 0
    size: int = 8
    base: Reg | None = None
    disp: int = 0


@dataclass(frozen=True)
class Op(Instruction):
    """ALU operation: ``rd = rs1 <op> src2``."""

    op: str
    rd: Reg
    rs1: Reg
    src2: Operand


@dataclass(frozen=True)
class Mov(Instruction):
    """Register move: ``rd = rs``."""

    rd: Reg
    rs: Reg


@dataclass(frozen=True)
class Movi(Instruction):
    """Load immediate: ``rd = value``."""

    rd: Reg
    value: int


@dataclass(frozen=True)
class Cmp(Instruction):
    """Compare ``rs1`` against ``src2``, setting the condition codes.

    The condition-code register remembers the two compared values; a
    following :class:`Bcc` evaluates its condition against them.  RETCON
    extends the condition-code register with a symbolic constraint field
    (paper §4.3).
    """

    rs1: Reg
    src2: Operand


@dataclass(frozen=True)
class Branch(Instruction):
    """Compare-and-branch: if ``rs1 cond src2`` jump to instruction
    index ``target``."""

    cond: Cond
    rs1: Reg
    src2: Operand
    target: int


@dataclass(frozen=True)
class Bcc(Instruction):
    """Branch on the condition codes set by the most recent :class:`Cmp`."""

    cond: Cond
    target: int


@dataclass(frozen=True)
class Jump(Instruction):
    """Unconditional jump to instruction index ``target``."""

    target: int


@dataclass(frozen=True)
class Nop(Instruction):
    """Busy work costing ``cycles`` cycles (models non-memory compute)."""

    cycles: int = 1


@dataclass(frozen=True)
class Halt(Instruction):
    """End the program (transactions also end at the last instruction)."""
