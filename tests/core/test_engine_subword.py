"""§4.3 technicalities: sub-word and mismatched store-load communication."""

import pytest

from repro.core.engine import RetconEngine
from repro.core.symvalue import SymValue
from repro.mem.address import block_base


def block_with(**words) -> bytes:
    raw = bytearray(64)
    for key, value in words.items():
        idx = int(key.lstrip("w"))
        raw[8 * idx : 8 * idx + 8] = (value % (1 << 64)).to_bytes(
            8, "little"
        )
    return bytes(raw)


@pytest.fixture
def engine():
    eng = RetconEngine()
    eng.begin_txn()
    eng.start_tracking(4, block_with(w0=0x1122334455667788))
    return eng


BASE = block_base(4)


class TestSubwordTracking:
    def test_subword_load_gets_subword_root(self, engine):
        value, sym = engine.load(BASE, 4)
        assert value == 0x55667788
        assert sym == SymValue(BASE, 4, 0)

    def test_subword_roots_are_distinct(self, engine):
        _, sym_low = engine.load(BASE, 4)
        _, sym_high = engine.load(BASE + 4, 4)
        assert sym_low.root != sym_high.root

    def test_narrow_load_over_wider_store_composes(self, engine):
        """4-byte load over an 8-byte buffered store: 'too complex'
        communication — concrete composition plus equality pins."""
        sym = SymValue(BASE, 8, 1)
        engine.store_buffered(
            BASE, 8, 0xAABBCCDD00112233, sym, lambda a, s: bytes(s)
        )
        value, got = engine.load(BASE, 4)
        assert got is None
        assert value == 0x00112233
        # The symbolic store's root was pinned.
        assert 0 in engine.ivb.get(4).equality_words

    def test_wide_load_over_narrow_store_composes(self, engine):
        engine.store_buffered(
            BASE + 2, 2, 0xFFFF, None,
            lambda a, s: engine.ivb.get(4).read_initial_bytes(a, s),
        )
        value, got = engine.load(BASE, 8)
        assert got is None
        # bytes 2-3 (little-endian) replaced, rest initial (pinned).
        assert value == 0x11223344_FFFF7788
        assert 0 in engine.ivb.get(4).equality_words

    def test_exact_subword_bypass_pins_root(self, engine):
        """A sub-word reload is the sign-extended low bytes of
        [root]+delta, not [root]+delta: concrete value, pinned root."""
        sym = SymValue(BASE, 4, 2)
        engine.store_buffered(BASE + 8, 4, 7, sym, lambda a, s: bytes(s))
        value, got = engine.load(BASE + 8, 4)
        assert value == 7
        assert got is None
        assert 0 in engine.ivb.get(4).equality_words
        # The buffered store itself stays symbolic: it drains repaired.
        assert engine.ssb.lookup(BASE + 8, 4).sym == sym

    def test_exact_word_bypass_keeps_symbolic(self, engine):
        sym = SymValue(BASE, 4, 2)
        engine.store_buffered(BASE + 8, 8, 7, sym, lambda a, s: bytes(s))
        assert engine.load(BASE + 8, 8) == (7, sym)
        assert not engine.ivb.get(4).equality_words

    def test_buffered_value_is_what_memory_would_hold(self, engine):
        wide, sym = engine.load(BASE, 8)
        engine.store_buffered(BASE + 4, 4, wide, sym, lambda a, s: bytes(s))
        # The store truncated [root]: the entry is concrete, root pinned.
        assert engine.load(BASE + 4, 4) == (0x55667788, None)
        assert engine.ssb.lookup(BASE + 4, 4).sym is None
        assert 0 in engine.ivb.get(4).equality_words

    def test_subword_commit_plan_truncates(self, engine):
        value, sym = engine.load(BASE, 4)
        engine.store_buffered(
            BASE, 4, value + 1, sym.shifted(1), lambda a, s: bytes(s)
        )
        engine.on_block_lost(4)
        current = block_with(w0=0x11223344_00000001)
        engine.validate(current if isinstance(current, dict) else {4: current})
        plan = engine.commit_plan({4: current})
        assert (BASE, 4, 2) in plan.stores  # 1 + 1, 4-byte store

    def test_equality_words_cover_subword_roots(self, engine):
        engine.equality_constrain((BASE + 4, 4))
        assert engine.ivb.get(4).equality_words == {0}
        engine.equality_constrain((BASE + 8, 2))
        assert 1 in engine.ivb.get(4).equality_words
