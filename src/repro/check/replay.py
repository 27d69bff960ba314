"""A concrete reference interpreter for transaction replay.

The repair oracle validates RETCON's central claim — commit-time
symbolic repair is equivalent to instruction replay (paper §1) — by
actually performing the replay the hardware avoids: re-executing a
committing transaction's program against the values the locations hold
*at commit time* and comparing the outcome with the repaired state.

The interpreter here is deliberately independent of the simulator's
core (:mod:`repro.sim.cpu`): it shares only the pure instruction
semantics (:func:`repro.isa.instructions.apply_op`,
:func:`~repro.isa.instructions.evaluate_cond`), so a bug in the core's
transactional plumbing cannot hide in the oracle too.  It performs no
symbolic tracking, no coherence, no buffering — just architectural
semantics over a byte-level read function plus a private write overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.isa.instructions import (
    Bcc,
    Branch,
    Cmp,
    Halt,
    Jump,
    Load,
    Mov,
    Movi,
    Nop,
    Op,
    Reg,
    Store,
    apply_op,
    evaluate_cond,
)
from repro.isa.program import Program

#: reads *size* raw bytes at *addr* from the underlying memory image
ReadFn = Callable[[int, int], bytes]


class ReplayLimitExceeded(RuntimeError):
    """The replay ran longer than its instruction budget.

    Reaching the budget means replayed control flow diverged badly
    enough to loop (the original execution terminated, or it would
    never have committed) — the caller reports it as a violation
    rather than spinning forever.
    """


@dataclass
class ReplayResult:
    """The architectural outcome of one replayed transaction."""

    #: final value of every architectural register
    regs: list[int]
    #: byte address -> byte value for every byte the replay stored
    overlay: dict[int, int] = field(default_factory=dict)
    #: instruction indices in execution order
    pc_trace: list[int] = field(default_factory=list)
    #: instructions executed (== len(pc_trace))
    steps: int = 0

    def read_overlay(self, addr: int, size: int) -> Optional[int]:
        """The replayed stores' value for [addr, addr+size), if fully
        covered by the overlay (little-endian, signed)."""
        raw = bytearray()
        for a in range(addr, addr + size):
            byte = self.overlay.get(a)
            if byte is None:
                return None
            raw.append(byte)
        return int.from_bytes(bytes(raw), "little", signed=True)


def replay_program(
    program: Program,
    initial_regs: list[int],
    read_fn: ReadFn,
    max_steps: int = 1_000_000,
) -> ReplayResult:
    """Re-execute *program* from *initial_regs* over *read_fn*.

    Loads read the replay's own overlay first (store-to-load
    forwarding within the transaction), then fall through to
    ``read_fn``; stores go only to the overlay, never to the
    underlying memory.  Returns the final registers, the overlay, and
    the executed pc trace.  Raises :class:`ReplayLimitExceeded` if the
    program fails to terminate within *max_steps* instructions.
    """
    regs = list(initial_regs)
    overlay: dict[int, int] = {}
    pc_trace: list[int] = []
    trace = pc_trace.append
    instructions = program.instructions
    end = len(instructions)
    cc_lhs = cc_rhs = 0
    cc_valid = False
    pc = steps = 0

    # One type test per step, most frequent class first; operands,
    # effective addresses and the overlay reads/writes are inlined.
    while pc < end:
        if steps >= max_steps:
            raise ReplayLimitExceeded(
                f"replay exceeded {max_steps} instructions at pc={pc}"
            )
        inst = instructions[pc]
        trace(pc)
        steps += 1
        kind = type(inst)

        if kind is Load:
            base = inst.base
            addr = inst.addr if base is None else regs[base] + inst.disp
            size = inst.size
            raw = read_fn(addr, size)
            span = range(addr, addr + size)
            if not overlay.keys().isdisjoint(span):
                raw = bytes(map(overlay.get, span, raw))
            regs[inst.rd] = int.from_bytes(raw, "little", signed=True)
        elif kind is Store:
            base = inst.base
            addr = inst.addr if base is None else regs[base] + inst.disp
            src = inst.src
            value = regs[src] if type(src) is Reg else src.value
            size = inst.size
            overlay.update(zip(
                range(addr, addr + size),
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"),
            ))
        elif kind is Op:
            src = inst.src2
            regs[inst.rd] = apply_op(
                inst.op,
                regs[inst.rs1],
                regs[src] if type(src) is Reg else src.value,
            )
        elif kind is Movi:
            regs[inst.rd] = inst.value
        elif kind is Branch:
            src = inst.src2
            if evaluate_cond(
                inst.cond,
                regs[inst.rs1],
                regs[src] if type(src) is Reg else src.value,
            ):
                pc = inst.target
                continue
        elif kind is Nop:
            pass
        elif kind is Cmp:
            src = inst.src2
            cc_lhs = regs[inst.rs1]
            cc_rhs = regs[src] if type(src) is Reg else src.value
            cc_valid = True
        elif kind is Bcc:
            if not cc_valid:
                raise RuntimeError("replay: Bcc before any Cmp")
            if evaluate_cond(inst.cond, cc_lhs, cc_rhs):
                pc = inst.target
                continue
        elif kind is Halt:
            break
        elif kind is Jump:
            pc = inst.target
            continue
        elif kind is Mov:
            regs[inst.rd] = regs[inst.rs]
        else:
            raise TypeError(f"unknown instruction: {inst!r}")
        pc += 1

    return ReplayResult(
        regs=regs, overlay=overlay, pc_trace=pc_trace, steps=steps
    )
