"""Lazy handlers: an instruction is compiled when it first runs.

The interpreter does not dispatch on instruction dataclasses per
executed cycle.  Each distinct instruction that runs becomes one
closure per variant

    handler(core, regs) -> latency

with its operands and ALU/condition callables bound as default
arguments, and with the symbolic-or-plain decision made once rather
than once per executed instruction.  Handlers set ``core.pc``
themselves and let :class:`StallRetry`/:class:`TxnAborted` propagate
*before* the pc update, so a retried or aborted instruction re-executes
from the same pc.

A handler depends only on its instruction and the variant: a
non-control handler ends with ``core.pc += 1``; ``Branch``, ``Bcc`` and
``Jump`` bind the target index the assembler resolved and set
``core.pc`` to it when taken; ``Halt`` sets ``core.pc`` to the length
of ``core.program``.  So a handler lives on the instruction itself, as
its ``run_sym`` attribute for cores whose RETCON engine does symbolic
arithmetic and its ``run_plain`` attribute for every other core
(lazy-vb's engine never mints a symbolic value, so its cores run plain
too).  The core calls ``program.instructions[pc].run_plain(core,
regs)``; until the instruction first runs, that finds the class-level
default this module puts on :class:`Instruction`, which compiles the
handler, installs it on the instance (``object.__setattr__``;
instructions are frozen dataclasses), and calls it.  Every later
execution, by any core in any program, the retry of a stalled access
included, goes direct.

What is compiled is the traffic that was measured.  Only about 40 % of
the instruction slots at the ``retcon-repair`` benchmark point ever
execute (42.5 % on ``hybrid-capacity``, 65.6 % on ``htm-contended``,
73.6 % on ``service-observed``): error paths, resize paths and
not-taken branch arms are most of a program's text, and a fuzz case
builds hundreds of tiny programs and runs each a handful of times.
The workload models give each ``Txn`` its own ``Program``, but the
assembler interns instructions (:mod:`repro.isa.program`), so the
4 192 programs of ``retcon-repair`` (seed 3) hold 5 108 distinct
instructions in 135 854 slots, and the 4 649 of them that run there
compile into 4 649 handlers; nothing is built or indexed per program
or per slot.  A handler lives as long as its instruction; there is no
global handler table.

These handlers are the only interpreter in ``sim/``: oracle-checked
runs and the ``lockstep`` scheduler spelling execute them too.  The
repair oracle's own interpreter over the same instructions
(:mod:`repro.check.replay`) is deliberately independent of this file.
"""

from __future__ import annotations

import operator

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
    Reg,
    Store,
    apply_op,
)


def _operand_pair(operand) -> tuple[bool, int]:
    """Collapse a Reg/Imm operand into ``(is_reg, index_or_value)``."""
    if isinstance(operand, Reg):
        return True, int(operand)
    assert isinstance(operand, Imm)
    return False, operand.value


def _div_trunc(lhs: int, rhs: int) -> int:
    """``apply_op("div", ...)``: quiet divide-by-zero, truncate to zero."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


_OP_FN = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _div_trunc,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_COND_FN = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.LE: operator.le,
    Cond.GT: operator.gt,
    Cond.GE: operator.ge,
}


# ---------------------------------------------------------------------------
# Per-instruction compilers: (inst, symbolic) -> handler
# ---------------------------------------------------------------------------
def _compile_load(inst: Load, symbolic: bool):
    rd = int(inst.rd)
    addr = inst.addr
    size = inst.size
    disp = inst.disp
    if inst.base is None:
        if symbolic:
            def handler(core, regs, rd=rd, addr=addr, size=size):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.engine.sregs._syms[rd] = result.sym
                core.pc += 1
                return result.latency
        else:
            def handler(core, regs, rd=rd, addr=addr, size=size):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.pc += 1
                return result.latency
    else:
        base = int(inst.base)
        if symbolic:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size):
                engine = core.engine
                syms = engine.sregs._syms
                # Address calculation consumes the base register: a
                # symbolic base is pinned with an equality constraint
                # (§4.2), again on every retry.
                base_sym = syms[base]
                if base_sym is not None:
                    engine.equality_constrain(base_sym.root)
                result = core.system.load(core.cid, regs[base] + disp, size)
                regs[rd] = result.value
                syms[rd] = result.sym
                core.pc += 1
                return result.latency
        else:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size):
                result = core.system.load(core.cid, regs[base] + disp, size)
                regs[rd] = result.value
                core.pc += 1
                return result.latency
    return handler


def _compile_store(inst: Store, symbolic: bool):
    src_is_reg, src = _operand_pair(inst.src)
    addr = inst.addr
    size = inst.size
    disp = inst.disp
    if inst.base is None:
        if src_is_reg:
            if symbolic:
                def handler(core, regs, src=src, addr=addr, size=size):
                    latency = core.system.store(
                        core.cid, addr, size, regs[src],
                        sym=core.engine.sregs._syms[src],
                    )
                    core.pc += 1
                    return latency
            else:
                def handler(core, regs, src=src, addr=addr, size=size):
                    latency = core.system.store(
                        core.cid, addr, size, regs[src], sym=None
                    )
                    core.pc += 1
                    return latency
        else:
            def handler(core, regs, value=src, addr=addr, size=size):
                latency = core.system.store(
                    core.cid, addr, size, value, sym=None
                )
                core.pc += 1
                return latency
    else:
        base = int(inst.base)
        if src_is_reg:
            if symbolic:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size):
                    engine = core.engine
                    syms = engine.sregs._syms
                    base_sym = syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=syms[src],
                    )
                    core.pc += 1
                    return latency
            else:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size):
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=None,
                    )
                    core.pc += 1
                    return latency
        else:
            if symbolic:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size):
                    engine = core.engine
                    base_sym = engine.sregs._syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc += 1
                    return latency
            else:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size):
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc += 1
                    return latency
    return handler


def _compile_op(inst: Op, symbolic: bool):
    op = inst.op
    rd = int(inst.rd)
    rs1 = int(inst.rs1)
    src2_is_reg, src2 = _operand_pair(inst.src2)
    fn = _OP_FN.get(op)
    if fn is None:
        # Unknown opcode: defer to apply_op so the error surfaces when
        # the instruction executes, not when its neighbours do.
        def fn(lhs, rhs, op=op):
            return apply_op(op, lhs, rhs)
    if symbolic:
        if src2_is_reg:
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2):
                rs1_val = regs[rs1]
                src2_val = regs[src2]
                regs[rd] = fn(rs1_val, src2_val)
                engine = core.engine
                syms = engine.sregs._syms
                engine.alu(
                    op, rd, syms[rs1], syms[src2], rs1_val, src2_val
                )
                core.pc += 1
                return 1
        else:
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2):
                rs1_val = regs[rs1]
                regs[rd] = fn(rs1_val, src2)
                engine = core.engine
                engine.alu(
                    op, rd, engine.sregs._syms[rs1], None, rs1_val, src2
                )
                core.pc += 1
                return 1
    else:
        if src2_is_reg:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2):
                regs[rd] = fn(regs[rs1], regs[src2])
                core.pc += 1
                return 1
        else:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2):
                regs[rd] = fn(regs[rs1], src2)
                core.pc += 1
                return 1
    return handler


def _compile_mov(inst: Mov, symbolic: bool):
    rd = int(inst.rd)
    rs = int(inst.rs)
    if symbolic:
        def handler(core, regs, rd=rd, rs=rs):
            regs[rd] = regs[rs]
            syms = core.engine.sregs._syms
            syms[rd] = syms[rs]
            core.pc += 1
            return 1
    else:
        def handler(core, regs, rd=rd, rs=rs):
            regs[rd] = regs[rs]
            core.pc += 1
            return 1
    return handler


def _compile_movi(inst: Movi, symbolic: bool):
    rd = int(inst.rd)
    value = inst.value
    if symbolic:
        def handler(core, regs, rd=rd, value=value):
            regs[rd] = value
            core.engine.sregs._syms[rd] = None
            core.pc += 1
            return 1
    else:
        def handler(core, regs, rd=rd, value=value):
            regs[rd] = value
            core.pc += 1
            return 1
    return handler


def _compile_cmp(inst: Cmp, symbolic: bool):
    rs1 = int(inst.rs1)
    src2_is_reg, src2 = _operand_pair(inst.src2)
    if symbolic:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2):
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            engine = core.engine
            syms = engine.sregs._syms
            engine.on_cmp(
                lhs, rhs,
                syms[rs1],
                syms[src2] if src2_is_reg else None,
            )
            core.pc += 1
            return 1
    else:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2):
            rhs = regs[src2] if src2_is_reg else src2
            core.cc.set_concrete(regs[rs1], rhs)
            core.pc += 1
            return 1
    return handler


def _compile_branch(inst: Branch, symbolic: bool):
    cond = inst.cond
    rs1 = int(inst.rs1)
    src2_is_reg, src2 = _operand_pair(inst.src2)
    test = _COND_FN[cond]
    target = inst.target
    if symbolic:
        def handler(core, regs, test=test, cond=cond, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target):
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            taken = test(lhs, rhs)
            engine = core.engine
            syms = engine.sregs._syms
            engine.on_branch(
                cond,
                syms[rs1],
                syms[src2] if src2_is_reg else None,
                lhs, rhs, taken,
            )
            core.pc = target if taken else core.pc + 1
            return 1
    else:
        def handler(core, regs, test=test, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target):
            taken = test(regs[rs1], regs[src2] if src2_is_reg else src2)
            core.pc = target if taken else core.pc + 1
            return 1
    return handler


def _compile_bcc(inst: Bcc, symbolic: bool):
    cond = inst.cond
    target = inst.target
    if symbolic:
        def handler(core, regs, cond=cond, target=target):
            taken = core.cc.evaluate(cond)
            core.engine.on_bcc(cond, taken)
            core.pc = target if taken else core.pc + 1
            return 1
    else:
        def handler(core, regs, cond=cond, target=target):
            taken = core.cc.evaluate(cond)
            core.pc = target if taken else core.pc + 1
            return 1
    return handler


def _compile_jump(inst: Jump, symbolic: bool):
    def handler(core, regs, target=inst.target):
        core.pc = target
        return 1
    return handler


def _compile_nop(inst: Nop, symbolic: bool):
    def handler(core, regs, cycles=inst.cycles):
        core.pc += 1
        return cycles
    return handler


def _compile_halt(inst: Halt, symbolic: bool):
    def handler(core, regs):
        core.pc = len(core.program.instructions)
        return 1
    return handler


_COMPILERS = {
    Load: _compile_load,
    Store: _compile_store,
    Op: _compile_op,
    Mov: _compile_mov,
    Movi: _compile_movi,
    Cmp: _compile_cmp,
    Branch: _compile_branch,
    Bcc: _compile_bcc,
    Jump: _compile_jump,
    Nop: _compile_nop,
    Halt: _compile_halt,
}


def _compile_one(inst: Instruction, symbolic: bool):
    """Compile one instruction into its handler closure."""
    compiler = _COMPILERS.get(type(inst))
    if compiler is None:
        raise TypeError(f"unknown instruction: {inst!r}")
    return compiler(inst, symbolic)


def _first_run_plain(inst: Instruction, core, regs):
    """``Instruction.run_plain`` until *inst* first runs on a plain
    core: compile its handler and install it on the instance before
    calling it, so a ``StallRetry``/``TxnAborted`` out of this first
    call leaves the handler in place and the retry goes direct."""
    handler = _compile_one(inst, False)
    object.__setattr__(inst, "run_plain", handler)
    return handler(core, regs)


def _first_run_sym(inst: Instruction, core, regs):
    """``Instruction.run_sym``: :func:`_first_run_plain` for cores that
    do symbolic arithmetic."""
    handler = _compile_one(inst, True)
    object.__setattr__(inst, "run_sym", handler)
    return handler(core, regs)


Instruction.run_plain = _first_run_plain
Instruction.run_sym = _first_run_sym
