"""Programs and a small assembler for building them.

A :class:`Program` is an immutable tuple of instructions, nothing
else.  Labels exist only while a program is assembled: the
:class:`Assembler` keeps each branch pending until :meth:`~Assembler.build`
and then emits it with its target's instruction index, so a taken
branch jumps to ``inst.target`` and no label table outlives the build.
The assembler provides a fluent builder API used by the workload
generators, e.g.::

    asm = Assembler()
    asm.load(R1, counter_addr)
    asm.addi(R1, R1, 1)
    asm.store(R1, counter_addr)
    asm.br(Cond.GT, R1, 100, "resize")
    asm.halt()
    asm.mark("resize")
    ...
    program = asm.build()

Every emit goes through :func:`_intern`, so a static instruction exists
once however many programs hold it: equal constructor arguments (of
equal types, so ``Reg(1)``, ``1`` and ``Imm(1)`` stay apart) return the
same frozen object.  A branch is interned with its resolved index, so
two programs share one only where their targets sit at the same index.
The pool holds its instructions weakly; an instruction dies with the
last program that uses it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator

from repro.isa.instructions import (
    Bcc,
    Branch,
    Cmp,
    Cond,
    Halt,
    Imm,
    Instruction,
    Jump,
    Load,
    Mov,
    Movi,
    Nop,
    Op,
    Operand,
    Reg,
    Store,
)


@dataclass(frozen=True, slots=True)
class Program:
    """An immutable instruction sequence; branch targets are indices."""

    instructions: tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


_POOL: "weakref.WeakValueDictionary[tuple, Instruction]" = (
    weakref.WeakValueDictionary()
)


def _intern(cls: type, *args) -> Instruction:
    """Return the pooled ``cls(*args)``, building it only on a miss.

    The key carries each argument's type: ``Reg(1) == 1 == True``."""
    key = (cls, *args, *map(type, args))
    inst = _POOL.get(key)
    if inst is None:
        inst = _POOL[key] = cls(*args)
    return inst


class AssemblerError(ValueError):
    """Raised for malformed programs (duplicate or undefined labels)."""


def _operand(value: "int | Reg | Imm") -> Operand:
    """Coerce a bare int into an ``Imm`` operand; pass registers through."""
    if isinstance(value, Reg):
        return value
    if isinstance(value, Imm):
        return value
    return Imm(int(value))


class Assembler:
    """A fluent builder for :class:`Program` objects.

    All emit methods return ``self`` so calls can be chained.  ``mark``
    defines a label at the current position; branch targets may be
    marked before or after the branch is emitted.  Until :meth:`build`
    a branch is held as ``(cls, *operands, label)``.
    """

    def __init__(self) -> None:
        self._instructions: list["Instruction | tuple"] = []
        self._labels: dict[str, int] = {}
        self._fresh = 0

    # -- labels -----------------------------------------------------------
    def mark(self, label: str) -> "Assembler":
        if label in self._labels:
            raise AssemblerError(f"duplicate label: {label!r}")
        self._labels[label] = len(self._instructions)
        return self

    def fresh_label(self, hint: str = "L") -> str:
        """Return a new unique label name (not yet marked)."""
        self._fresh += 1
        return f"{hint}_{self._fresh}"

    # -- memory -----------------------------------------------------------
    def load(self, rd: Reg, addr: int, size: int = 8) -> "Assembler":
        self._instructions.append(_intern(Load, rd, addr, size, None, 0))
        return self

    def load_ind(
        self, rd: Reg, base: Reg, disp: int = 0, size: int = 8
    ) -> "Assembler":
        self._instructions.append(_intern(Load, rd, 0, size, base, disp))
        return self

    def store(
        self, src: "int | Reg | Imm", addr: int, size: int = 8
    ) -> "Assembler":
        self._instructions.append(
            _intern(Store, _operand(src), addr, size, None, 0)
        )
        return self

    def store_ind(
        self,
        src: "int | Reg | Imm",
        base: Reg,
        disp: int = 0,
        size: int = 8,
    ) -> "Assembler":
        self._instructions.append(
            _intern(Store, _operand(src), 0, size, base, disp)
        )
        return self

    # -- ALU ----------------------------------------------------------------
    def op(
        self, op: str, rd: Reg, rs1: Reg, src2: "int | Reg | Imm"
    ) -> "Assembler":
        self._instructions.append(_intern(Op, op, rd, rs1, _operand(src2)))
        return self

    def addi(self, rd: Reg, rs1: Reg, imm: int) -> "Assembler":
        return self.op("add", rd, rs1, imm)

    def subi(self, rd: Reg, rs1: Reg, imm: int) -> "Assembler":
        return self.op("sub", rd, rs1, imm)

    def sub(self, rd: Reg, rs1: Reg, rs2: Reg) -> "Assembler":
        return self.op("sub", rd, rs1, rs2)

    def mul(self, rd: Reg, rs1: Reg, src2: "int | Reg | Imm") -> "Assembler":
        return self.op("mul", rd, rs1, src2)

    def div(self, rd: Reg, rs1: Reg, src2: "int | Reg | Imm") -> "Assembler":
        return self.op("div", rd, rs1, src2)

    def mov(self, rd: Reg, rs: Reg) -> "Assembler":
        self._instructions.append(_intern(Mov, rd, rs))
        return self

    def movi(self, rd: Reg, value: int) -> "Assembler":
        self._instructions.append(_intern(Movi, rd, value))
        return self

    # -- control flow -------------------------------------------------------
    def cmp(self, rs1: Reg, src2: "int | Reg | Imm") -> "Assembler":
        self._instructions.append(_intern(Cmp, rs1, _operand(src2)))
        return self

    def br(
        self, cond: Cond, rs1: Reg, src2: "int | Reg | Imm", target: str
    ) -> "Assembler":
        self._instructions.append((Branch, cond, rs1, _operand(src2), target))
        return self

    def bcc(self, cond: Cond, target: str) -> "Assembler":
        self._instructions.append((Bcc, cond, target))
        return self

    def jump(self, target: str) -> "Assembler":
        self._instructions.append((Jump, target))
        return self

    # -- misc ----------------------------------------------------------------
    def nop(self, cycles: int = 1) -> "Assembler":
        if cycles > 0:
            self._instructions.append(_intern(Nop, cycles))
        return self

    def halt(self) -> "Assembler":
        self._instructions.append(_intern(Halt))
        return self

    # -- build ----------------------------------------------------------------
    def build(self) -> Program:
        """Resolve every branch's label to its instruction index and
        return the finished program."""
        instructions = list(self._instructions)
        for idx, inst in enumerate(instructions):
            if type(inst) is tuple:
                cls, *operands, label = inst
                target = self._labels.get(label)
                if target is None:
                    raise AssemblerError(
                        f"instruction {idx} references undefined label "
                        f"{label!r}"
                    )
                instructions[idx] = _intern(cls, *operands, target)
        return Program(tuple(instructions))
