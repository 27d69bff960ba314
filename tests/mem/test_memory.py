"""Main memory semantics: sizes, signedness, block spanning, cloning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.memory import MainMemory, WriteBuffer, narrow


class TestIntegerAccess:
    def test_read_back(self, memory):
        memory.write(0x100, 12345)
        assert memory.read(0x100) == 12345

    def test_uninitialized_reads_zero(self, memory):
        assert memory.read(0xDEAD0) == 0

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_sizes_round_trip(self, memory, size):
        value = (1 << (8 * size - 2)) - 5
        memory.write(0x200, value, size)
        assert memory.read(0x200, size) == value

    def test_negative_values_sign_extend(self, memory):
        memory.write(0x80, -3, 4)
        assert memory.read(0x80, 4) == -3

    def test_truncation_to_access_size(self, memory):
        memory.write(0x40, 0x1FF, 1)
        assert memory.read(0x40, 1) == -1  # 0xFF sign-extended

    def test_invalid_size_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.read(0, 3)
        with pytest.raises(ValueError):
            memory.write(0, 1, 5)

    def test_adjacent_writes_do_not_clobber(self, memory):
        memory.write(0x10, 0x11, 1)
        memory.write(0x11, 0x22, 1)
        assert memory.read(0x10, 1) == 0x11
        assert memory.read(0x11, 1) == 0x22


class TestBlockSpanning:
    def test_write_across_block_boundary(self, memory):
        addr = 64 - 4  # spans blocks 0 and 1
        memory.write(addr, 0x1122334455667788, 8)
        assert memory.read(addr, 8) == 0x1122334455667788

    def test_read_block_returns_64_bytes(self, memory):
        memory.write(64, 7)
        block = memory.read_block(1)
        assert len(block) == 64
        assert block[0] == 7


class TestClone:
    def test_clone_is_independent(self, memory):
        memory.write(0x100, 1)
        copy = memory.clone()
        copy.write(0x100, 2)
        assert memory.read(0x100) == 1
        assert copy.read(0x100) == 2

    def test_clone_preserves_contents(self, memory):
        for i in range(10):
            memory.write(0x1000 + 8 * i, i * i)
        copy = memory.clone()
        for i in range(10):
            assert copy.read(0x1000 + 8 * i) == i * i


@given(
    addr=st.integers(min_value=0, max_value=10_000),
    value=st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
def test_word_round_trip_property(addr, value):
    memory = MainMemory()
    memory.write(addr, value, 8)
    assert memory.read(addr, 8) == value


@given(
    addr=st.integers(min_value=0, max_value=1000),
    data=st.binary(min_size=1, max_size=200),
)
def test_byte_round_trip_property(addr, data):
    memory = MainMemory()
    memory.write_bytes(addr, data)
    assert memory.read_bytes(addr, len(data)) == data


_access = st.tuples(
    st.integers(min_value=40, max_value=90),  # straddles blocks 0 and 1
    st.sampled_from([1, 2, 4, 8]),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@given(
    under=st.binary(min_size=128, max_size=128),
    stores=st.lists(_access, max_size=12),
    probe=_access,
)
def test_write_buffer_holds_what_memory_would_hold(under, stores, probe):
    """Buffered write-then-read is memory write-then-read, at every
    width over every other; draining the runs gives the same image."""
    below, written = MainMemory(), MainMemory()
    below.write_bytes(0, under)
    written.write_bytes(0, under)
    buffer = WriteBuffer()
    for addr, size, value in stores:
        buffer.write(addr, size, value)
        written.write(addr, value, size)
        assert buffer.read(addr, size, below.read_bytes(addr, size)) == (
            narrow(value, size)
        )
    addr, size, _ = probe
    assert buffer.read(addr, size, below.read_bytes(addr, size)) == (
        written.read(addr, size)
    )
    assert buffer.blocks() == {
        block
        for addr, size, _ in stores
        for block in (addr // 64, (addr + size - 1) // 64)
    }
    runs = buffer.runs()
    assert runs == sorted(runs)
    assert all(a + n < b for (a, n, _), (b, _, _) in zip(runs, runs[1:]))
    below.write_runs(runs)
    assert below.read_bytes(0, 128) == written.read_bytes(0, 128)
    buffer.clear()
    assert not buffer.runs() and not buffer.blocks()
