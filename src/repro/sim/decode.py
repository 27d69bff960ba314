"""Lazy handler chains: an instruction is compiled when it first runs.

The interpreter does not dispatch on instruction dataclasses per
executed cycle.  Each distinct slot that runs (instruction, successor
pc, chain variant, jump target) becomes one closure

    handler(core, regs) -> latency

with its operands, successor pc, and ALU/condition callables bound as
default arguments, and with the symbolic-or-plain decision made once
rather than once per executed instruction.  Handlers set ``core.pc``
themselves and let :class:`StallRetry`/:class:`TxnAborted` propagate
*before* the pc update, so a retried or aborted instruction re-executes
from the same pc.

What the chains are built for is the traffic that was measured.  Only
about 40 % of the static instructions at the ``retcon-repair``
benchmark point ever execute (42.5 % on ``hybrid-capacity``, 65.6 % on
``htm-contended``, 73.6 % on ``service-observed``): error paths,
resize paths and not-taken branch arms are most of a program's text,
and a fuzz case builds hundreds of tiny programs and runs each a
handful of times.  So :func:`chain_for` hands out a list of
``len(program)`` references to one :func:`_trampoline`, and the
trampoline resolves the instruction under ``core.pc`` the first time
any core reaches it, installs the handler in the shared list, and
calls it.  Every later execution, the retry of a stalled access
included, goes direct.  A chain is attached to the ``Program``
instance itself (via ``object.__setattr__``; programs are frozen
dataclasses), one variant for cores whose RETCON engine does
symbolic arithmetic and a plain one for every other core (lazy-vb's
engine never mints a symbolic value, so its cores run plain too); a
chain is shared by every core and every attempt.

The workload models give each ``Txn`` its own ``Program``, but the
assembler interns instructions (:mod:`repro.isa.program`), so the
4 192 programs of ``retcon-repair`` (seed 3) hold 5 107 distinct
instructions in 135 854 slots.  A handler is a pure function of the
instruction, its successor pc, the chain variant and the resolved
jump target, so the trampoline memoizes handlers on the instruction
object under ``(nxt, symbolic, target)``: the 54 019 slots that
run there share 5 523 closures.  Chains live as long as their program
and memos as long as their instruction; there is no global handler
table.

The chains are the only interpreter in ``sim/``: oracle-checked runs
and the ``lockstep`` scheduler spelling execute them too.  The repair
oracle's own interpreter over the same instructions
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
from repro.isa.program import Program


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
# Per-instruction compilers: (inst, nxt, symbolic, target) -> handler
# ---------------------------------------------------------------------------
def _compile_load(inst: Load, nxt: int, symbolic: bool, target):
    rd = int(inst.rd)
    addr = inst.addr
    size = inst.size
    disp = inst.disp
    if inst.base is None:
        if symbolic:
            def handler(core, regs, rd=rd, addr=addr, size=size, nxt=nxt):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.engine.sregs._syms[rd] = result.sym
                core.pc = nxt
                return result.latency
        else:
            def handler(core, regs, rd=rd, addr=addr, size=size, nxt=nxt):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.pc = nxt
                return result.latency
    else:
        base = int(inst.base)
        if symbolic:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size,
                        nxt=nxt):
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
                core.pc = nxt
                return result.latency
        else:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size,
                        nxt=nxt):
                result = core.system.load(core.cid, regs[base] + disp, size)
                regs[rd] = result.value
                core.pc = nxt
                return result.latency
    return handler


def _compile_store(inst: Store, nxt: int, symbolic: bool, target):
    src_is_reg, src = _operand_pair(inst.src)
    addr = inst.addr
    size = inst.size
    disp = inst.disp
    if inst.base is None:
        if src_is_reg:
            if symbolic:
                def handler(core, regs, src=src, addr=addr, size=size,
                            nxt=nxt):
                    latency = core.system.store(
                        core.cid, addr, size, regs[src],
                        sym=core.engine.sregs._syms[src],
                    )
                    core.pc = nxt
                    return latency
            else:
                def handler(core, regs, src=src, addr=addr, size=size,
                            nxt=nxt):
                    latency = core.system.store(
                        core.cid, addr, size, regs[src], sym=None
                    )
                    core.pc = nxt
                    return latency
        else:
            def handler(core, regs, value=src, addr=addr, size=size, nxt=nxt):
                latency = core.system.store(
                    core.cid, addr, size, value, sym=None
                )
                core.pc = nxt
                return latency
    else:
        base = int(inst.base)
        if src_is_reg:
            if symbolic:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    engine = core.engine
                    syms = engine.sregs._syms
                    base_sym = syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=syms[src],
                    )
                    core.pc = nxt
                    return latency
            else:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=None,
                    )
                    core.pc = nxt
                    return latency
        else:
            if symbolic:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    engine = core.engine
                    base_sym = engine.sregs._syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc = nxt
                    return latency
            else:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    latency = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc = nxt
                    return latency
    return handler


def _compile_op(inst: Op, nxt: int, symbolic: bool, target):
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
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                rs1_val = regs[rs1]
                src2_val = regs[src2]
                regs[rd] = fn(rs1_val, src2_val)
                engine = core.engine
                syms = engine.sregs._syms
                engine.alu(
                    op, rd, syms[rs1], syms[src2], rs1_val, src2_val
                )
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                rs1_val = regs[rs1]
                regs[rd] = fn(rs1_val, src2)
                engine = core.engine
                engine.alu(
                    op, rd, engine.sregs._syms[rs1], None, rs1_val, src2
                )
                core.pc = nxt
                return 1
    else:
        if src2_is_reg:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                regs[rd] = fn(regs[rs1], regs[src2])
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                regs[rd] = fn(regs[rs1], src2)
                core.pc = nxt
                return 1
    return handler


def _compile_mov(inst: Mov, nxt: int, symbolic: bool, target):
    rd = int(inst.rd)
    rs = int(inst.rs)
    if symbolic:
        def handler(core, regs, rd=rd, rs=rs, nxt=nxt):
            regs[rd] = regs[rs]
            syms = core.engine.sregs._syms
            syms[rd] = syms[rs]
            core.pc = nxt
            return 1
    else:
        def handler(core, regs, rd=rd, rs=rs, nxt=nxt):
            regs[rd] = regs[rs]
            core.pc = nxt
            return 1
    return handler


def _compile_movi(inst: Movi, nxt: int, symbolic: bool, target):
    rd = int(inst.rd)
    value = inst.value
    if symbolic:
        def handler(core, regs, rd=rd, value=value, nxt=nxt):
            regs[rd] = value
            core.engine.sregs._syms[rd] = None
            core.pc = nxt
            return 1
    else:
        def handler(core, regs, rd=rd, value=value, nxt=nxt):
            regs[rd] = value
            core.pc = nxt
            return 1
    return handler


def _compile_cmp(inst: Cmp, nxt: int, symbolic: bool, target):
    rs1 = int(inst.rs1)
    src2_is_reg, src2 = _operand_pair(inst.src2)
    if symbolic:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2,
                    nxt=nxt):
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            engine = core.engine
            syms = engine.sregs._syms
            engine.on_cmp(
                lhs, rhs,
                syms[rs1],
                syms[src2] if src2_is_reg else None,
            )
            core.pc = nxt
            return 1
    else:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2,
                    nxt=nxt):
            rhs = regs[src2] if src2_is_reg else src2
            core.cc.set_concrete(regs[rs1], rhs)
            core.pc = nxt
            return 1
    return handler


def _compile_branch(inst: Branch, nxt: int, symbolic: bool, target):
    cond = inst.cond
    rs1 = int(inst.rs1)
    src2_is_reg, src2 = _operand_pair(inst.src2)
    test = _COND_FN[cond]
    if symbolic:
        def handler(core, regs, test=test, cond=cond, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target,
                    nxt=nxt):
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
            core.pc = target if taken else nxt
            return 1
    else:
        def handler(core, regs, test=test, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target,
                    nxt=nxt):
            rhs = regs[src2] if src2_is_reg else src2
            core.pc = target if test(regs[rs1], rhs) else nxt
            return 1
    return handler


def _compile_bcc(inst: Bcc, nxt: int, symbolic: bool, target):
    cond = inst.cond
    if symbolic:
        def handler(core, regs, cond=cond, target=target, nxt=nxt):
            taken = core.cc.evaluate(cond)
            core.engine.on_bcc(cond, taken)
            core.pc = target if taken else nxt
            return 1
    else:
        def handler(core, regs, cond=cond, target=target, nxt=nxt):
            core.pc = target if core.cc.evaluate(cond) else nxt
            return 1
    return handler


def _compile_jump(inst: Jump, nxt: int, symbolic: bool, target):
    def handler(core, regs, target=target):
        core.pc = target
        return 1
    return handler


def _compile_nop(inst: Nop, nxt: int, symbolic: bool, target):
    def handler(core, regs, cycles=inst.cycles, nxt=nxt):
        core.pc = nxt
        return cycles
    return handler


def _compile_halt(inst: Halt, nxt: int, symbolic: bool, target):
    def handler(core, regs, end=target):
        core.pc = end
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


def _compile_one(inst: Instruction, nxt: int, symbolic: bool, target):
    """Compile one instruction into its handler closure."""
    compiler = _COMPILERS.get(type(inst))
    if compiler is None:
        raise TypeError(f"unknown instruction: {inst!r}")
    return compiler(inst, nxt, symbolic, target)


def _target(inst: Instruction, program: Program) -> int | None:
    """The pc a slot can jump to besides its successor: a label's
    index, the end of the program for ``Halt``, else ``None``."""
    if isinstance(inst, (Branch, Bcc, Jump)):
        return program.target(inst.target)
    if isinstance(inst, Halt):
        return len(program)
    return None


def _trampoline(core, regs):
    """Every slot's first handler: find or compile the handler of the
    instruction under ``core.pc``, install it for every core sharing
    the chain, run it.

    Handlers are memoized on the instruction object under ``(nxt,
    symbolic, target)``, everything a compiler reads besides the
    instruction, so a static instruction that many programs share
    compiles once per distinct slot.  The handler is installed
    *before* its first call, so a ``StallRetry``/``TxnAborted`` raised
    by that call propagates with the slot already compiled and the
    retry goes direct.
    """
    pc = core.pc
    program = core._chain_program
    inst = program.instructions[pc]
    engine = core.engine
    symbolic = engine is not None and engine.symbolic_arithmetic
    key = (pc + 1, symbolic, _target(inst, program))
    handlers = getattr(inst, "_handlers", None)
    if handlers is None:
        handlers = {}
    handler = handlers.get(key)
    if handler is None:
        handler = handlers[key] = _compile_one(inst, *key)
        object.__setattr__(inst, "_handlers", handlers)
    core._chain[pc] = handler
    return handler(core, regs)


def chain_for(program: Program, symbolic: bool) -> list:
    """Return the cached handler chain of *program*, symbolic or plain
    (shared across cores): one slot per pc, each holding
    the trampoline until the instruction first executes."""
    attr = "_chain_sym" if symbolic else "_chain_plain"
    try:
        return getattr(program, attr)
    except AttributeError:
        chain = [_trampoline] * len(program)
        object.__setattr__(program, attr, chain)
        return chain
