"""Repair equals re-execution, on ``core/`` alone (paper §4, §4.3).

Veldhuizen's *Transaction Repair* states the property RETCON claims:
repairing a transaction against changed inputs gives what re-running
it on those inputs gives.  Here it is checked with nothing but a
:class:`RetconEngine` — no ``Core``, no TM system, no coherence: a
random straight-line or branching list of *mixed-width, overlapping*
1/2/4/8-byte loads, stores and ``add``/``sub`` over one or two tracked
blocks is driven into the engine; a remote writer then overwrites
random tracked bytes; and ``validate`` + ``commit_plan`` (stores and
register repairs) must equal a concrete byte-level re-execution on the
new bytes, or ``validate`` must raise.  A re-execution that leaves the
executed path is a violated constraint, so it must raise.

Registers are unbounded Python integers in this simulator, so a
symbolic ``[root]+delta`` that overflowed 64 bits would differ from
its own 8-byte store-and-reload.  Real registers cannot; the top byte
of every word is kept out of the top quarter of the range (and deltas
small) so the property never depends on it.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import ConstraintViolation, RetconEngine
from repro.isa.instructions import Cond, apply_op, evaluate_cond
from repro.mem.address import BLOCK_SIZE, block_base, block_of

#: (block, bytes of it the program and the remote writer touch): one
#: word each, so accesses of every width keep landing on each other
WINDOWS = ((4, 8), (5, 8))
NREGS = 3


def _byte(addr: int):
    if addr % 8 == 7:
        return st.integers(0x00, 0x3F) | st.integers(0xC0, 0xFF)
    # The edges of the signed range are where a width matters.
    return st.integers(0x00, 0xFF) | st.sampled_from([0x7F, 0x80, 0xFF])


_ADDRS = [
    block_base(block) + offset
    for block, span in WINDOWS
    for offset in range(span)
]
_access = st.sampled_from((1, 2, 4, 8)).flatmap(
    lambda size: st.tuples(
        st.sampled_from([a for a in _ADDRS if a % size == 0]),
        st.just(size),
    )
)
_reg = st.integers(0, NREGS - 1)
_imm = st.integers(-300, 300) | st.sampled_from([-1, 1])
#: a guard skips its op when ``reg cond imm`` holds
_guard = st.none() | st.tuples(
    st.sampled_from(list(Cond)), _reg, _imm
)


@st.composite
def programs(draw):
    # A few locations per program, so its loads and stores meet: the
    # same bytes at the same width, and at every other width.
    access = st.sampled_from(
        draw(st.lists(_access, min_size=1, max_size=4))
    )
    op = st.one_of(
        st.tuples(st.just("load"), _reg, access),
        st.tuples(st.just("store"), _reg, access),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), _reg, _reg, _imm),
        st.tuples(st.just("movi"), _reg, _imm),
    )
    return draw(st.lists(st.tuples(_guard, op), min_size=1, max_size=12))


images = st.fixed_dictionaries({addr: _byte(addr) for addr in _ADDRS})
overwrites = st.dictionaries(
    st.sampled_from(_ADDRS), st.integers(0, 255), max_size=6
).flatmap(
    lambda chosen: st.fixed_dictionaries(
        {addr: _byte(addr) for addr in chosen}
    )
)


def blocks_of(image: dict[int, int]) -> dict[int, bytearray]:
    blocks = {block: bytearray(BLOCK_SIZE) for block, _span in WINDOWS}
    for addr, byte in image.items():
        blocks[block_of(addr)][addr % BLOCK_SIZE] = byte
    return blocks


def run_concrete(blocks, program, regs) -> list[bool]:
    """The reference: architectural semantics over raw block bytes."""
    path = []
    for guard, op in program:
        if guard is not None:
            cond, reg, imm = guard
            path.append(evaluate_cond(cond, regs[reg], imm))
            if path[-1]:
                continue
        kind = op[0]
        if kind == "load":
            _, rd, (addr, size) = op
            offset = addr % BLOCK_SIZE
            regs[rd] = int.from_bytes(
                blocks[block_of(addr)][offset : offset + size],
                "little", signed=True,
            )
        elif kind == "store":
            _, rs, (addr, size) = op
            offset = addr % BLOCK_SIZE
            blocks[block_of(addr)][offset : offset + size] = (
                regs[rs] & ((1 << (8 * size)) - 1)
            ).to_bytes(size, "little")
        elif kind == "movi":
            regs[op[1]] = op[2]
        else:
            _, rd, rs, imm = op
            regs[rd] = apply_op(kind, regs[rs], imm)
    return path


def run_tracked(engine, program, regs) -> list[bool]:
    """The same program through the engine, the way the core drives it."""

    def initial_bytes(addr, size):
        return engine.ivb.get(block_of(addr)).read_initial_bytes(addr, size)

    path = []
    for guard, op in program:
        if guard is not None:
            cond, reg, imm = guard
            taken = evaluate_cond(cond, regs[reg], imm)
            engine.on_branch(
                cond, engine.reg_sym(reg), None, regs[reg], imm, taken
            )
            path.append(taken)
            if taken:
                continue
        kind = op[0]
        if kind == "load":
            _, rd, (addr, size) = op
            regs[rd], sym = engine.load(addr, size)
            engine.set_reg_sym(rd, sym)
        elif kind == "store":
            _, rs, (addr, size) = op
            engine.store_buffered(
                addr, size, regs[rs], engine.reg_sym(rs), initial_bytes
            )
        elif kind == "movi":
            regs[op[1]] = op[2]
            engine.set_reg_sym(op[1], None)
        else:
            _, rd, rs, imm = op
            value = regs[rs]
            regs[rd] = apply_op(kind, value, imm)
            engine.alu(kind, rd, engine.reg_sym(rs), None, value, imm)
    return path


A = block_base(WINDOWS[0][0])
_ZEROS = dict.fromkeys(_ADDRS, 0)


@settings(max_examples=400, deadline=None)
@example(
    # A sub-word [root]+1 leaves the store's range only after repair:
    # 1-byte root 5 -> 127, +1, store 1, load 1 reads -128, not 128.
    program=[
        (None, ("load", 0, (A, 1))),
        (None, ("add", 0, 0, 1)),
        (None, ("store", 0, (A, 1))),
        (None, ("load", 1, (A, 1))),
    ],
    image={**_ZEROS, A: 5}, remote={A: 127}, regs0=[0, 0, 0], symbolic=True,
)
@example(
    # A store narrower than its root: 8-byte root, 4-byte store and
    # reload (fuzz-branchy seed 139410902003).
    program=[
        (None, ("load", 0, (A, 8))),
        (None, ("store", 0, (A + 4, 4))),
        (None, ("load", 1, (A + 4, 4))),
    ],
    image={**_ZEROS, A + 5: 1}, remote={A: 9}, regs0=[0, 0, 0],
    symbolic=True,
)
@example(
    # The bypass hands back what memory would hold, not the register
    # (fuzz-branchy seed 121751464000, lazy-vb).
    program=[
        (None, ("load", 0, (A, 8))),
        (None, ("store", 0, (A + 4, 4))),
        (None, ("load", 1, (A + 4, 4))),
    ],
    image={**_ZEROS, A + 5: 1}, remote={}, regs0=[0, 0, 0], symbolic=False,
)
@given(
    program=programs(),
    image=images,
    remote=overwrites,
    regs0=st.lists(
        st.integers(-300, 300) | st.integers(-(2**40), 2**40),
        min_size=NREGS, max_size=NREGS,
    ),
    symbolic=st.booleans(),
)
def test_repair_equals_reexecution(program, image, remote, regs0, symbolic):
    engine = RetconEngine(
        ivb_capacity=None, constraint_capacity=None, ssb_capacity=None,
        symbolic_arithmetic=symbolic,
    )
    engine.begin_txn()
    for block, data in blocks_of(image).items():
        engine.start_tracking(block, bytes(data))
    regs = list(regs0)
    path = run_tracked(engine, program, regs)

    # The remote writer: overwritten blocks are lost and reacquired.
    after = blocks_of({**image, **remote})
    current = {}
    for block in {block_of(addr) for addr in remote}:
        engine.on_block_lost(block)
        current[block] = bytes(after[block])

    try:
        engine.validate(current)
    except ConstraintViolation:
        # Aborting is always sound, unless nothing changed.
        assert after != blocks_of(image)
        return
    expected_regs = list(regs0)
    expected_path = run_concrete(after, program, expected_regs)
    assert path == expected_path, "a violated constraint did not raise"

    plan = engine.commit_plan(current)
    repaired = blocks_of({**image, **remote})
    for addr, size, value in plan.stores:
        offset = addr % BLOCK_SIZE
        repaired[block_of(addr)][offset : offset + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
    for reg, value in plan.registers:
        regs[reg] = value
    assert repaired == after
    assert regs == expected_regs
