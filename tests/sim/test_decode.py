"""Lazy handlers (see repro.sim.decode).

An instruction's ``run_plain``/``run_sym`` starts as the class-level
default, which compiles the instruction's handler the first time any
core reaches it, installs it on the instruction instance, and calls
it.  A handler depends only on its instruction and variant: it binds
no pc, a taken branch jumps to the index the assembler resolved, and
``Halt`` reads the running core's program.  These tests pin the
contract: what never runs is never compiled, what one core compiled no
other core or program compiles again, a stalled first call leaves the
handler installed, errors surface when the bad instruction executes,
and a shared instruction ends against whichever program runs it.

Instructions are interned and handlers outlive a run, so the tests
that look at what was compiled run instructions no other test emits
(:func:`_fresh`, :func:`_unseen_program`).
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.htm.events import StallRetry
from repro.isa.instructions import Cond, Imm, Instruction, Load, Op
from repro.isa.program import Assembler, Program
from repro.isa.registers import R1, R2, R3
from repro.sim import decode
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.runner import run_workload
from repro.sim.script import ThreadScript, Txn
from repro.workloads.registry import get_workload

_UNSEEN = itertools.count(1)


def _fresh() -> int:
    """A value no other test puts in an instruction."""
    return 7000 + next(_UNSEEN)


def _counter_program(addr: int, delta: int):
    asm = Assembler()
    asm.load(R1, addr)
    asm.addi(R1, R1, delta)
    asm.store(R1, addr)
    asm.halt()
    return asm.build()


def _unseen_program():
    """A three-instruction counter on a fresh address with a fresh
    delta: no earlier test compiled any of its instructions.  Returns
    the program, its address and its delta."""
    delta = _fresh()
    addr = 0x7F000 + 64 * delta
    asm = Assembler()
    asm.load(R1, addr)
    asm.addi(R1, R1, delta)
    asm.store(R1, addr)
    return asm.build(), addr, delta


def _program_with_cold_arm(cold_inst=None):
    """pcs 0-3 always run; pcs 4-5 sit behind a never-taken branch and
    hold instructions no other test emits."""
    value = _fresh()
    asm = Assembler()
    cold = asm.fresh_label("cold")
    asm.movi(R1, 0)
    asm.br(Cond.NE, R1, 0, cold)
    asm.store(R1, 4096)
    asm.halt()
    asm.mark(cold)
    asm.movi(R2, value)
    asm.store(R2, 0x10000 + 64 * value)
    program = asm.build()
    if cold_inst is not None:
        instructions = list(program.instructions)
        instructions[4] = cold_inst
        program = Program(tuple(instructions))
    return program


def _installed(inst, symbolic=False):
    """The handler installed on *inst*, or None while it never ran."""
    return vars(inst).get("run_sym" if symbolic else "run_plain")


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
    """Record every per-instruction compile as (instruction, symbolic)."""
    compiled = []
    original = decode._compile_one

    def spy(inst, symbolic):
        compiled.append((inst, symbolic))
        return original(inst, symbolic)

    monkeypatch.setattr(decode, "_compile_one", spy)
    return compiled


class _NoCompiler:
    """A type the interpreter has no compiler for, with the first-run
    defaults of :class:`Instruction` (not a subclass of it: the
    oracle's tests enumerate those)."""

    run_plain = Instruction.run_plain
    run_sym = Instruction.run_sym


class TestLazyChain:
    def test_never_taken_branch_arm_is_never_compiled(self, memory):
        program = _program_with_cold_arm()
        _run([program], memory)
        hot, cold = program.instructions[:4], program.instructions[4:]
        assert all(_installed(inst) is not None for inst in hot)
        assert [_installed(inst) for inst in cold] == [None, None]
        assert memory.read(0x10000 + 64 * cold[0].value) == 0

    def test_two_cores_share_one_chain_and_the_second_compiles_nothing(
        self, memory, monkeypatch
    ):
        compiled = _spy_on_compile(monkeypatch)
        program, addr, delta = _unseen_program()
        machine = _run([program], memory, ncores=2)
        first, second = machine.cores
        assert first.program is second.program is program
        # three instructions, two cores, retries: three compiles
        assert compiled == [(inst, False) for inst in program]
        assert memory.read(addr) == 2 * delta

    def test_stalled_first_call_installs_the_handler(self, monkeypatch):
        """A StallRetry out of a handler's first call propagates with
        the handler already installed: the retry goes direct."""
        compiled = _spy_on_compile(monkeypatch)
        program, _addr, _delta = _unseen_program()
        load = program.instructions[0]

        def stalling_load(cid, addr, size):
            raise StallRetry(block=addr // 64, blockers={1})

        core = SimpleNamespace(
            cid=0, pc=0, engine=None, program=program,
            system=SimpleNamespace(load=stalling_load),
        )
        regs = [0] * 16
        with pytest.raises(StallRetry):
            load.run_plain(core, regs)
        handler = _installed(load)
        assert handler is not None
        assert core.pc == 0
        with pytest.raises(StallRetry):
            load.run_plain(core, regs)
        assert _installed(load) is handler
        assert compiled == [(load, False)]

    def test_unknown_opcode_raises_when_it_executes(self, memory):
        """What apply_op raises, at execution — not at all while the
        instruction stays behind a cold branch."""
        bogus = Op("bogus", R2, R2, Imm(1))
        _run([_program_with_cold_arm(cold_inst=bogus)], memory)
        assert _installed(bogus) is None

        with pytest.raises(ValueError, match="unknown ALU opcode: 'bogus'"):
            _run([Program((bogus,))], memory)

    def test_unknown_instruction_type_raises_when_it_executes(self, memory):
        """It raises every time: the compile fails before anything is
        installed."""
        hot = Program((_NoCompiler(),))
        for _ in range(2):
            with pytest.raises(TypeError, match="unknown instruction"):
                _run([hot], memory)
        assert _installed(hot.instructions[0]) is None

    def test_branch_and_jump_targets_resolve_to_indices(self, memory):
        asm = Assembler()
        skip = asm.fresh_label("skip")
        out = asm.fresh_label("out")
        asm.br(Cond.EQ, R1, 0, skip)   # 0: taken (R1 == 0) -> 2
        asm.movi(R1, _fresh())         # 1: skipped
        asm.mark(skip)
        asm.jump(out)                  # 2: -> 4
        asm.movi(R1, _fresh())         # 3: skipped
        asm.mark(out)
        asm.store(R1, 4096)            # 4
        program = asm.build()
        memory.write(4096, 7)
        _run([program], memory)
        ran = [_installed(inst) is not None for inst in program]
        assert ran[1] is ran[3] is False
        assert memory.read(4096) == 0


class TestInstalledHandler:
    def test_installed_on_the_instruction_instance(self, memory):
        """The handler is an attribute of the instruction; the program
        carries nothing but its instructions."""
        program, _addr, _delta = _unseen_program()
        _run([program], memory)
        for inst in program:
            assert inst.run_plain is _installed(inst)
            assert _installed(inst, symbolic=True) is None
        assert Program.__slots__ == ("instructions",)
        assert not hasattr(program, "__dict__")

    def test_a_handler_binds_no_pc(self, memory, monkeypatch):
        """One instruction at pc 0 of one program and pc 1 of another
        runs through one handler and falls through to the right pc."""
        compiled = _spy_on_compile(monkeypatch)
        value = _fresh()
        first = Assembler().movi(R3, value).store(R3, 0x6100).build()
        second = (
            Assembler().nop().movi(R3, value).store(R3, 0x6140).build()
        )
        assert first.instructions[0] is second.instructions[1]
        _run([first, second], memory)
        assert [inst for inst, _ in compiled].count(
            first.instructions[0]
        ) == 1
        assert memory.read(0x6100) == memory.read(0x6140) == value

    def test_a_fresh_instruction_has_no_handler(self, monkeypatch):
        compiled = _spy_on_compile(monkeypatch)
        program, _addr, _delta = _unseen_program()
        for inst in program:
            assert _installed(inst) is _installed(inst, True) is None
        assert Load.run_plain is decode._first_run_plain
        assert Load.run_sym is decode._first_run_sym
        assert compiled == []


class TestCoreDecodeSwap:
    def test_core_follows_program_swap(self, memory):
        """A script whose transactions use different programs must
        execute each against its own program (a stale one would replay
        the first program's effects)."""
        machine = _run(
            [_counter_program(4096, 5), _counter_program(4160, 9)], memory
        )
        assert machine.memory.read(4096) == 5
        assert machine.memory.read(4160) == 9

    def test_retry_reuses_core_cache(self, memory, monkeypatch):
        """Same-program retries reuse the installed handlers: each
        instruction compiles exactly once across many attempts."""
        compiled = _spy_on_compile(monkeypatch)
        program, addr, delta = _unseen_program()
        machine = _run([program] * 4, memory)
        assert machine.cores[0].program is program
        assert compiled == [(inst, False) for inst in program]
        assert machine.memory.read(addr) == 4 * delta

    def test_lockstep_runs_the_same_chain(self, memory, monkeypatch):
        """``scheduler="lockstep"`` is the same interpreter stopped
        after every step: same handlers, nothing compiled twice."""
        compiled = _spy_on_compile(monkeypatch)
        program, addr, delta = _unseen_program()
        machine = _run([program] * 4, memory, scheduler="lockstep")
        assert machine.cores[0].program is program
        assert compiled == [(inst, False) for inst in program]
        assert machine.memory.read(addr) == 4 * delta


class TestSharedInstructions:
    """One interned instruction in several programs: one handler per
    variant, whichever program runs it."""

    def test_one_interned_branch_per_resolved_target(
        self, memory, monkeypatch
    ):
        """A branch carries its target index: programs whose label sits
        at the same index share one branch and one handler, and the
        same label one slot further on is another branch."""
        compiled = _spy_on_compile(monkeypatch)
        value = _fresh()

        def build(fillers, addr):
            asm = Assembler()
            asm.br(Cond.NE, R2, value, "out")   # taken: R2 == 0
            for _ in range(fillers):
                asm.movi(R3, value)
            asm.mark("out")
            asm.store(R3, addr)
            return asm.build()

        near, near_too = build(1, 0x6140), build(1, 0x6180)
        far = build(2, 0x61C0)
        branch = near.instructions[0]
        assert branch is near_too.instructions[0]
        assert branch is not far.instructions[0]
        assert branch.target == 2 and far.instructions[0].target == 3
        for addr in (0x6140, 0x6180, 0x61C0):
            memory.write(addr, 99)
        _run([near, near_too, far], memory)
        ran = [inst for inst, _ in compiled]
        assert ran.count(branch) == ran.count(far.instructions[0]) == 1
        # every run of each branch skipped every filler movi
        for addr in (0x6140, 0x6180, 0x61C0):
            assert memory.read(addr) == 0

    def test_shared_halt_ends_each_program_at_its_own_length(self, memory):
        """The one Halt runs first in the two-instruction program; in
        the three-instruction one it must still skip pc 2, and either
        variant sets exactly the running program's length."""
        value = _fresh()
        short = Assembler().halt().store(value, 0x6200).build()
        long = (
            Assembler().halt().store(value, 0x6200).store(value, 0x6240)
            .build()
        )
        halt = short.instructions[0]
        assert halt is long.instructions[0]
        _run([short, long], memory)
        assert _installed(halt) is not None
        assert _installed(short.instructions[1]) is None
        assert memory.read(0x6200) == memory.read(0x6240) == 0
        for program in (long, short, long):
            for run in (halt.run_plain, halt.run_sym):
                core = SimpleNamespace(pc=0, program=program)
                assert run(core, []) == 1
                assert core.pc == len(program)

    def test_lazy_vb_runs_the_plain_chain(self, memory):
        """lazy-vb's engine never mints a symbolic value, so its cores
        take the plain handlers, as cores without an engine do."""
        program, addr, delta = _unseen_program()
        _run([program], memory, system="lazy-vb")
        for inst in program:
            assert _installed(inst) is not None
            assert _installed(inst, symbolic=True) is None
        assert memory.read(addr) == delta

    def test_engine_variants_get_their_own_handlers(self, memory):
        program, addr, delta = _unseen_program()
        _run([program], memory, system="eager")
        _run([program], memory, system="retcon")
        for inst in program:
            plain, sym = _installed(inst), _installed(inst, symbolic=True)
            assert plain is not None and sym is not None
            assert plain.__code__ is not sym.__code__
        assert memory.read(addr) == 2 * delta

    def test_equal_slots_in_distinct_programs_share_a_handler(
        self, memory, monkeypatch
    ):
        compiled = _spy_on_compile(monkeypatch)
        a, _addr, _delta = _unseen_program()
        b = Program(a.instructions)
        _run([a, b], memory)
        assert compiled == [(inst, False) for inst in a]


class TestProcessHistory:
    """Installed handlers outlive a run; what a point computes must
    not depend on what the process ran before it."""

    def test_rerun_after_another_point_is_identical(self):
        def point(name, system):
            return run_workload(
                name, system, ncores=4, seed=2, scale=0.05
            ).to_dict()

        first = point("vacation_opt-sz", "retcon")
        point("python_opt", "lazy-vb")
        assert point("vacation_opt-sz", "retcon") == first

    def test_distinct_instruction_and_handler_counts(self, monkeypatch):
        """Pin: vacation_opt-sz, 8 cores, scale 0.05, seed 1 holds 1 408
        instruction slots but 200 distinct objects, and its retcon run
        plus the sequential baseline install 336 handlers, each executed
        instruction compiling at most once per variant."""
        compiled = _spy_on_compile(monkeypatch)
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
        distinct = {id(i): i for program in programs for i in program}
        assert len(programs) == 16
        assert sum(len(program) for program in programs) == 1408
        assert len(distinct) == 200
        handlers = [
            handler
            for inst in distinct.values()
            for symbolic in (False, True)
            if (handler := _installed(inst, symbolic)) is not None
        ]
        assert len(compiled) == len(set(compiled))
        assert len(handlers) == 336
