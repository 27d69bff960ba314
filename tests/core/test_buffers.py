"""IVB, SSB, symbolic register file, condition codes."""

import pytest

from repro.core.buffers import (
    ConditionCodes,
    InitialValueBuffer,
    SymbolicRegisterFile,
    SymbolicStoreBuffer,
    SymbolicStoreBufferFull,
)
from repro.core.symvalue import SymValue
from repro.isa.instructions import Cond


def block_bytes(**words) -> bytes:
    """Build 64 block bytes with the given word_index=value items."""
    raw = bytearray(64)
    for key, value in words.items():
        idx = int(key.lstrip("w"))
        raw[8 * idx : 8 * idx + 8] = (value % (1 << 64)).to_bytes(
            8, "little"
        )
    return bytes(raw)


class TestInitialValueBuffer:
    def test_allocate_and_read(self):
        ivb = InitialValueBuffer(capacity=2)
        entry = ivb.allocate(4, block_bytes(w0=7, w1=9))
        base = 4 * 64
        assert entry.read_initial(base, 8) == 7
        assert entry.read_initial(base + 8, 8) == 9

    def test_allocate_idempotent(self):
        ivb = InitialValueBuffer()
        first = ivb.allocate(4, block_bytes(w0=7))
        second = ivb.allocate(4, block_bytes(w0=999))
        assert first is second
        assert second.read_initial(4 * 64, 8) == 7

    def test_capacity(self):
        ivb = InitialValueBuffer(capacity=1)
        assert ivb.allocate(1, bytes(64)) is not None
        assert ivb.is_full()
        assert ivb.allocate(2, bytes(64)) is None

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            InitialValueBuffer().allocate(1, b"\x00" * 8)

    def test_equality_words_cover_access(self):
        ivb = InitialValueBuffer()
        entry = ivb.allocate(0, bytes(64))
        entry.mark_equality(6, 4)  # bytes 6..9 span words 0 and 1
        assert entry.equality_words == {0, 1}

    def test_equality_violation_detection(self):
        ivb = InitialValueBuffer()
        entry = ivb.allocate(0, block_bytes(w0=1, w2=2))
        entry.mark_equality(0, 8)
        assert not entry.equality_violated(block_bytes(w0=1, w2=99))
        assert entry.equality_violated(block_bytes(w0=3, w2=2))


class TestSymbolicStoreBuffer:
    def test_exact_lookup(self):
        ssb = SymbolicStoreBuffer()
        ssb.put(0x100, 8, 42, None)
        assert ssb.lookup(0x100, 8).value == 42
        assert ssb.lookup(0x100, 4) is None
        assert ssb.lookup(0x108, 8) is None

    def test_replace_same_address(self):
        ssb = SymbolicStoreBuffer(capacity=1)
        ssb.put(0x100, 8, 1, None)
        ssb.put(0x100, 8, 2, None)  # replace, not a new entry
        assert len(ssb) == 1
        assert ssb.lookup(0x100, 8).value == 2

    def test_overlap_query(self):
        ssb = SymbolicStoreBuffer()
        ssb.put(0x100, 8, 1, None)
        ssb.put(0x110, 4, 2, None)
        hits = ssb.overlapping(0x104, 16)
        assert {e.addr for e in hits} == {0x100, 0x110}
        assert ssb.overlapping(0x120, 8) == []

    def test_capacity_raises(self):
        ssb = SymbolicStoreBuffer(capacity=2)
        ssb.put(0, 8, 0, None)
        ssb.put(8, 8, 0, None)
        with pytest.raises(SymbolicStoreBufferFull):
            ssb.put(16, 8, 0, None)

    def test_peak_tracks_high_water(self):
        ssb = SymbolicStoreBuffer()
        ssb.put(0, 8, 0, None)
        ssb.put(8, 8, 0, None)
        ssb.remove(0)
        ssb.put(8, 8, 1, None)
        assert ssb.peak == 2

    def test_value_bytes_truncate(self):
        ssb = SymbolicStoreBuffer()
        entry = ssb.put(0, 4, -1, None)
        assert entry.value_bytes() == b"\xff\xff\xff\xff"


class TestSymbolicRegisterFile:
    def test_set_get_clear(self):
        srf = SymbolicRegisterFile()
        sym = SymValue(0x100, 8, 1)
        srf.set(3, sym)
        assert srf.get(3) == sym
        assert srf.symbolic_regs() == [(3, sym)]
        srf.clear()
        assert srf.get(3) is None


class TestConditionCodes:
    def test_concrete_evaluation(self):
        cc = ConditionCodes()
        cc.set_concrete(5, 7)
        assert cc.evaluate(Cond.LT)
        assert not cc.evaluate(Cond.GE)

    def test_symbolic_fields(self):
        cc = ConditionCodes()
        sym = SymValue(0x100, 8)
        cc.set_symbolic(5, 7, sym, reversed_operands=True)
        assert cc.sym == sym
        assert cc.other == 5  # the concrete lhs
        assert cc.reversed_operands

    def test_bcc_before_cmp_raises(self):
        with pytest.raises(RuntimeError):
            ConditionCodes().evaluate(Cond.EQ)
