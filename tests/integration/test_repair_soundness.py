"""Repair soundness (the paper's core correctness argument, §4).

Property: for a randomly generated transaction over symbolically
tracked locations, if a remote writer mutates those locations
mid-transaction, then whatever RETCON does — commit with repair, or
abort on a violated constraint and re-execute — the final memory and
register state must equal a from-scratch execution of the transaction
against the mutated values.

The transaction body is drawn from loads, trackable arithmetic
(add/sub), untrackable arithmetic (mul — forces equality pins), moves,
stores, and branches guarding real instructions (which record interval
constraints and make control flow value-dependent), so every Figure 6
path and every §4.2 demotion rule is exercised.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coherence.directory import CoherenceFabric
from repro.htm.system import RetconTMSystem
from repro.isa.instructions import Cond, evaluate_cond
from repro.isa.program import Assembler, Program
from repro.isa.registers import Reg
from repro.mem.address import block_of
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.cpu import Core
from repro.sim.script import ThreadScript
from repro.sim.stats import MachineStats

TRACKED_BASE = 64  # block 1: four tracked words
TRACKED_WORDS = [TRACKED_BASE + 8 * i for i in range(4)]
PRIVATE_BASE = 4096  # a different block: two untracked words
PRIVATE_WORDS = [PRIVATE_BASE, PRIVATE_BASE + 8]
ALL_WORDS = TRACKED_WORDS + PRIVATE_WORDS
REGS = [Reg(i) for i in (1, 2, 3, 4)]

_plain_op = st.one_of(
    st.tuples(
        st.just("load"), st.sampled_from(REGS),
        st.sampled_from(range(len(ALL_WORDS))),
    ),
    st.tuples(st.just("addi"), st.sampled_from(REGS), st.integers(-5, 5)),
    st.tuples(st.just("mul"), st.sampled_from(REGS), st.integers(0, 3)),
    st.tuples(st.just("mov"), st.sampled_from(REGS), st.sampled_from(REGS)),
    st.tuples(
        st.just("store"), st.sampled_from(REGS),
        st.sampled_from(range(len(ALL_WORDS))),
    ),
)

_branch = st.tuples(
    st.sampled_from(["br", "cmpbcc"]),
    st.sampled_from(list(Cond)),
    st.sampled_from(REGS),
    st.integers(-10, 10),
)

# A body is a list of steps; each step is a plain op, optionally
# guarded by a branch that *skips* it when the condition holds.
_step = st.tuples(st.none() | _branch, _plain_op)
bodies = st.lists(_step, min_size=1, max_size=10)


def assemble(body) -> Program:
    asm = Assembler()
    for guard, op in body:
        label = None
        if guard is not None:
            label = asm.fresh_label("skip")
            _, cond, reg, imm = guard
            if guard[0] == "br":
                asm.br(cond, reg, imm, label)
            else:
                asm.cmp(reg, imm)
                asm.bcc(cond, label)
        kind = op[0]
        if kind == "load":
            asm.load(op[1], ALL_WORDS[op[2]])
        elif kind == "addi":
            asm.addi(op[1], op[1], op[2])
        elif kind == "mul":
            asm.mul(op[1], op[1], op[2])
        elif kind == "mov":
            asm.mov(op[1], op[2])
        elif kind == "store":
            asm.store(op[1], ALL_WORDS[op[2]])
        if label is not None:
            asm.mark(label)
    return asm.build()


def reference_run(body, memory: dict[int, int]):
    """Pure functional semantics of the generated transaction."""
    mem = dict(memory)
    regs = {int(r): 0 for r in REGS}
    for guard, op in body:
        if guard is not None:
            _, cond, reg, imm = guard
            if evaluate_cond(cond, regs[reg], imm):
                continue  # guarded instruction skipped
        kind = op[0]
        if kind == "load":
            regs[op[1]] = mem[ALL_WORDS[op[2]]]
        elif kind == "addi":
            regs[op[1]] += op[2]
        elif kind == "mul":
            regs[op[1]] *= op[2]
        elif kind == "mov":
            regs[op[1]] = regs[op[2]]
        elif kind == "store":
            mem[ALL_WORDS[op[2]]] = regs[op[1]]
    return mem, regs


@given(
    body=bodies,
    initial=st.lists(st.integers(-20, 20), min_size=6, max_size=6),
    mutate_at=st.integers(0, 10),
    mutations=st.lists(
        st.tuples(st.integers(0, 3), st.integers(-20, 20)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
def test_repaired_state_matches_reexecution(
    body, initial, mutate_at, mutations
):
    config = small_test_config(ncores=2)
    memory = MainMemory()
    for addr, value in zip(ALL_WORDS, initial):
        memory.write(addr, value)
    fabric = CoherenceFabric(config, 2)
    system = RetconTMSystem(config, memory, fabric, MachineStats(2))
    system.engine(0).predictor.observe_conflict(block_of(TRACKED_BASE))

    script = ThreadScript()
    script.add_txn(assemble(body))
    core = Core(0, system, system.stats.core(0), script)

    # Drive the transaction, injecting the remote mutation once.
    mutated = dict(zip(ALL_WORDS, initial))
    injected = False
    steps = 0
    while core.current_item() is not None and steps < 5000:
        if steps >= mutate_at and core.in_txn and not injected:
            for word_index, value in mutations:
                addr = TRACKED_WORDS[word_index]
                system.store(1, addr, 8, value)
                mutated[addr] = value
            injected = True
        core.step()
        steps += 1
    assert core.current_item() is None, "transaction did not finish"
    # Only meaningful when the steal landed mid-transaction.
    assume(injected)

    expected_mem, expected_regs = reference_run(body, mutated)
    for addr in ALL_WORDS:
        assert memory.read(addr) == expected_mem[addr], hex(addr)
    for reg in REGS:
        assert core.regs.read(reg) == expected_regs[reg], f"r{int(reg)}"
