"""Lazy handler chains (see repro.sim.decode).

A Program's chain starts as one trampoline per pc; the trampoline
finds or compiles the handler of the instruction under ``core.pc`` the
first time any core reaches it and installs it in the shared list.
Handlers are memoized on the (interned) instruction per distinct slot.
These tests pin the contract: what never runs is never compiled, what
one core compiled no other core compiles again, a stalled first call
leaves the handler installed, errors surface when the bad instruction
executes, a shared instruction gets one handler per distinct slot, and
a core picks up the right chain when its script moves to a different
program.

Compile counts are per process, so the tests that count compiles run
programs no other test emits (:func:`_unseen_program`).
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.htm.events import StallRetry
from repro.isa.instructions import Cond, Imm, Op
from repro.isa.program import Assembler, Program
from repro.isa.registers import R1, R2, R3
from repro.sim import decode
from repro.sim.config import MachineConfig
from repro.sim.decode import chain_for
from repro.sim.machine import Machine
from repro.sim.runner import run_workload
from repro.sim.script import ThreadScript, Txn
from repro.workloads.registry import get_workload


def _counter_program(addr: int, delta: int):
    asm = Assembler()
    asm.load(R1, addr)
    asm.addi(R1, R1, delta)
    asm.store(R1, addr)
    asm.halt()
    return asm.build()


_UNSEEN = itertools.count(1)


def _unseen_program():
    """A three-instruction counter on a fresh address with a fresh
    delta: no earlier test compiled any of its slots.  Returns the
    program, its address and its delta."""
    n = next(_UNSEEN)
    addr, delta = 0x7F000 + 64 * n, 7000 + n
    asm = Assembler()
    asm.load(R1, addr)
    asm.addi(R1, R1, delta)
    asm.store(R1, addr)
    return asm.build(), addr, delta


def _program_with_cold_arm(cold_inst=None):
    """pcs 0-3 always run; pcs 4-5 sit behind a never-taken branch."""
    asm = Assembler()
    cold = asm.fresh_label("cold")
    asm.movi(R1, 0)
    asm.br(Cond.NE, R1, 0, cold)
    asm.store(R1, 4096)
    asm.halt()
    asm.mark(cold)
    asm.movi(R2, 9)
    asm.store(R2, 4160)
    program = asm.build()
    if cold_inst is not None:
        instructions = list(program.instructions)
        instructions[4] = cold_inst
        program = Program(tuple(instructions), program.labels)
    return program


def _run(programs, memory, ncores=1, system="eager", **kwargs):
    scripts = []
    for _ in range(ncores):
        script = ThreadScript()
        for program in programs:
            script.add_txn(program)
        scripts.append(script)
    machine = Machine(
        MachineConfig().with_cores(ncores), system, scripts, memory, **kwargs
    )
    machine.run()
    return machine


def _spy_on_compile(monkeypatch):
    """Record every per-instruction compile as (instruction, nxt)."""
    compiled = []
    original = decode._compile_one

    def spy(inst, nxt, symbolic, target):
        compiled.append((inst, nxt))
        return original(inst, nxt, symbolic, target)

    monkeypatch.setattr(decode, "_compile_one", spy)
    return compiled


class TestLazyChain:
    def test_never_taken_branch_arm_is_never_compiled(self, memory):
        program = _program_with_cold_arm()
        _run([program], memory)
        chain = chain_for(program, symbolic=False)
        assert all(chain[pc] is not decode._trampoline for pc in range(4))
        assert chain[4] is decode._trampoline
        assert chain[5] is decode._trampoline
        assert memory.read(4160) == 0

    def test_two_cores_share_one_chain_and_the_second_compiles_nothing(
        self, memory, monkeypatch
    ):
        compiled = _spy_on_compile(monkeypatch)
        program, addr, delta = _unseen_program()
        machine = _run([program], memory, ncores=2)
        first, second = machine.cores
        assert first._chain is second._chain
        assert first._chain is chain_for(program, symbolic=False)
        # three static instructions, two cores, retries: three compiles
        assert [nxt for _inst, nxt in compiled] == [1, 2, 3]
        assert memory.read(addr) == 2 * delta

    def test_stalled_first_call_installs_the_handler(self, monkeypatch):
        """A StallRetry out of a handler's first call propagates with
        the slot already compiled: the retry goes direct."""
        compiled = _spy_on_compile(monkeypatch)
        program, _addr, _delta = _unseen_program()

        def stalling_load(cid, addr, size):
            raise StallRetry(block=addr // 64, blockers={1})

        core = SimpleNamespace(
            cid=0, pc=0, engine=None,
            system=SimpleNamespace(load=stalling_load),
            _chain_program=program,
            _chain=chain_for(program, symbolic=False),
        )
        regs = [0] * 16
        with pytest.raises(StallRetry):
            core._chain[0](core, regs)
        handler = core._chain[0]
        assert handler is not decode._trampoline
        assert core.pc == 0
        with pytest.raises(StallRetry):
            core._chain[0](core, regs)
        assert core._chain[0] is handler
        assert len(compiled) == 1

    def test_unknown_opcode_raises_when_it_executes(self, memory):
        """What apply_op raises, at execution — not at chain_for, and
        not at all while the instruction stays behind a cold branch."""
        bogus = Op("bogus", R2, R2, Imm(1))
        cold = _program_with_cold_arm(cold_inst=bogus)
        assert len(chain_for(cold, symbolic=False)) == len(cold)
        _run([cold], memory)

        hot = Program((bogus,), {})
        chain_for(hot, symbolic=False)
        with pytest.raises(ValueError, match="unknown ALU opcode: 'bogus'"):
            _run([hot], memory)

    def test_unknown_instruction_type_raises_when_it_executes(self, memory):
        """It raises every time: an ``object()`` cannot carry a handler
        memo, so the compile fails before anything is memoized."""
        hot = Program((object(),), {})
        chain_for(hot, symbolic=False)
        for _ in range(2):
            with pytest.raises(TypeError, match="unknown instruction"):
                _run([hot], memory)

    def test_branch_and_jump_targets_resolve_to_indices(self, memory):
        asm = Assembler()
        skip = asm.fresh_label("skip")
        out = asm.fresh_label("out")
        asm.br(Cond.EQ, R1, 0, skip)   # 0: taken (R1 == 0) -> 2
        asm.movi(R1, 1)                # 1: skipped
        asm.mark(skip)
        asm.jump(out)                  # 2: -> 4
        asm.movi(R1, 2)                # 3: skipped
        asm.mark(out)
        asm.store(R1, 4096)            # 4
        program = asm.build()
        memory.write(4096, 7)
        _run([program], memory)
        chain = chain_for(program, symbolic=False)
        assert [slot is decode._trampoline for slot in chain] == [
            False, True, False, True, False,
        ]
        assert memory.read(4096) == 0
        # the compiled branch and jump carry resolved indices
        assert chain[0].__defaults__[-2:] == (2, 1)  # (target, nxt)
        assert chain[2].__defaults__ == (4,)


class TestChainForCache:
    def test_cached_on_program_instance(self):
        program = _counter_program(4096, 1)
        plain = chain_for(program, symbolic=False)
        assert chain_for(program, symbolic=False) is plain
        sym = chain_for(program, symbolic=True)
        assert chain_for(program, symbolic=True) is sym
        assert sym is not plain

    def test_distinct_programs_get_distinct_chains(self):
        a = _counter_program(4096, 1)
        b = _counter_program(4096, 1)
        assert chain_for(a, False) is not chain_for(b, False)

    def test_a_fresh_chain_is_all_trampoline(self, monkeypatch):
        compiled = _spy_on_compile(monkeypatch)
        program = _counter_program(4096, 1)
        assert chain_for(program, symbolic=True) == (
            [decode._trampoline] * len(program)
        )
        assert compiled == []


class TestCoreDecodeSwap:
    def test_core_follows_program_swap(self, memory):
        """A script whose transactions use different programs must
        execute each with its own chain (a stale chain would replay
        the first program's effects)."""
        machine = _run(
            [_counter_program(4096, 5), _counter_program(4160, 9)], memory
        )
        assert machine.memory.read(4096) == 5
        assert machine.memory.read(4160) == 9

    def test_retry_reuses_core_cache(self, memory):
        """Same-program retries hit the core-local pair: the program
        instance compiles exactly once even across many attempts."""
        program = _counter_program(4096, 1)
        machine = _run([program] * 4, memory)
        core = machine.cores[0]
        assert core._chain_program is program
        assert core._chain is chain_for(program, symbolic=False)
        assert machine.memory.read(4096) == 4

    def test_lockstep_runs_the_same_chain(self, memory, monkeypatch):
        """``scheduler="lockstep"`` is the same interpreter stopped
        after every step: same chain object, nothing compiled twice."""
        compiled = _spy_on_compile(monkeypatch)
        program, addr, delta = _unseen_program()
        machine = _run([program] * 4, memory, scheduler="lockstep")
        core = machine.cores[0]
        assert core._chain is chain_for(program, symbolic=False)
        assert len(compiled) == len(program)
        assert machine.memory.read(addr) == 4 * delta


def _compiled(program, symbolic):
    return [
        slot for slot in chain_for(program, symbolic)
        if slot is not decode._trampoline
    ]


class TestSharedInstructions:
    """One interned instruction, several slots: a handler per distinct
    (instruction, nxt, engine variant, resolved target)."""

    def test_shared_branch_gets_one_handler_per_target(self, memory):
        def build(filler):
            asm = Assembler()
            asm.br(Cond.EQ, R2, 0, "out")   # taken: R2 == 0
            for value in filler:
                asm.movi(R3, value)
            asm.mark("out")
            asm.store(R3, 0x6100 + 64 * len(filler))
            return asm.build()

        near, far = build([11]), build([11, 12])
        assert near.instructions[0] is far.instructions[0]
        memory.write(0x6140, 99)
        memory.write(0x6180, 99)
        _run([near, far], memory)
        near_branch = chain_for(near, False)[0]
        far_branch = chain_for(far, False)[0]
        assert near_branch is not far_branch
        assert near_branch.__defaults__[-2:] == (2, 1)  # (target, nxt)
        assert far_branch.__defaults__[-2:] == (3, 1)
        # both branches skipped every filler movi
        assert memory.read(0x6140) == 0
        assert memory.read(0x6180) == 0

    def test_shared_halt_ends_each_program_at_its_own_length(self, memory):
        short = Assembler().halt().movi(R3, 1).build()
        long = Assembler().halt().movi(R3, 1).movi(R3, 2).build()
        assert short.instructions[0] is long.instructions[0]
        _run([short, long], memory)
        short_halt = chain_for(short, False)[0]
        long_halt = chain_for(long, False)[0]
        assert short_halt is not long_halt
        assert short_halt.__defaults__ == (2,)
        assert long_halt.__defaults__ == (3,)
        assert len(_compiled(short, False)) == len(_compiled(long, False)) == 1

    def test_lazy_vb_runs_the_plain_chain(self, memory):
        """lazy-vb's engine never mints a symbolic value, so its cores
        take the plain handlers, as cores without an engine do."""
        program, addr, delta = _unseen_program()
        machine = _run([program], memory, system="lazy-vb")
        assert machine.cores[0]._chain is chain_for(program, False)
        assert not _compiled(program, True)
        assert memory.read(addr) == delta

    def test_engine_variants_get_their_own_handlers(self, memory):
        program, addr, delta = _unseen_program()
        _run([program], memory, system="eager")
        _run([program], memory, system="retcon")
        plain, sym = chain_for(program, False), chain_for(program, True)
        assert len(_compiled(program, False)) == len(program)
        assert len(_compiled(program, True)) == len(program)
        for pc in range(len(program)):
            assert plain[pc] is not sym[pc]
            assert plain[pc].__code__ is not sym[pc].__code__
        assert memory.read(addr) == 2 * delta

    def test_equal_slots_in_distinct_programs_share_a_handler(self, memory):
        a, _addr, _delta = _unseen_program()
        b = Program(a.instructions, dict(a.labels))
        _run([a, b], memory)
        assert chain_for(a, False) is not chain_for(b, False)
        assert chain_for(a, False) == chain_for(b, False)


class TestProcessHistory:
    """The handler memo outlives a run; what a point computes must not
    depend on what the process ran before it."""

    def test_rerun_after_another_point_is_identical(self):
        def point(name, system):
            return run_workload(
                name, system, ncores=4, seed=2, scale=0.05
            ).to_dict()

        first = point("vacation_opt-sz", "retcon")
        point("python_opt", "lazy-vb")
        assert point("vacation_opt-sz", "retcon") == first

    def test_distinct_instruction_and_handler_counts(self):
        """Pin: vacation_opt-sz, 8 cores, scale 0.05, seed 1 holds 1 408
        instruction slots but 200 distinct objects, and its retcon run
        plus the sequential baseline compile 735 slots into 340
        distinct handlers."""
        generated = get_workload("vacation_opt-sz").generate(
            8, seed=1, scale=0.05
        )
        programs = [
            item.program
            for script in generated.scripts
            for item in script.items
            if isinstance(item, Txn)
        ]
        run_workload(
            "vacation_opt-sz", "retcon", ncores=8, seed=1, scale=0.05,
            generated=generated,
        )
        assert len(programs) == 16
        assert sum(len(program) for program in programs) == 1408
        assert len({id(i) for program in programs for i in program}) == 200
        slots = [
            handler
            for program in programs
            for symbolic in (False, True)
            for handler in _compiled(program, symbolic)
        ]
        assert len(slots) == 735
        assert len({id(handler) for handler in slots}) == 340
