"""STM metadata layout: orec table, clock, token in simulated memory."""

from repro.mem.address import BLOCK_SIZE, block_of
from repro.mem.allocator import BumpAllocator
from repro.stm.metadata import (
    CLOCK_ADDR,
    CLOCK_BLOCK,
    NORECS,
    OREC_BASE,
    OREC_BLOCK,
    OREC_STRIDE,
    STM_META_BASE,
    TOKEN_ADDR,
    TOKEN_BLOCK,
    orec_addr,
    owner_addr,
)


class TestLayout:
    def test_addresses_are_pinned(self):
        # Block numbers decide cycles: moving any of these moves results.
        assert CLOCK_ADDR == 0x1_0000_0000
        assert TOKEN_ADDR == 0x1_0000_0040
        assert OREC_BASE == 0x1_0000_0080
        assert NORECS == 256
        assert OREC_STRIDE == 16

    def test_layout_is_what_a_bump_allocator_places(self):
        alloc = BumpAllocator(start=STM_META_BASE)
        assert alloc.alloc_block(8) == CLOCK_ADDR
        assert alloc.alloc_block(8) == TOKEN_ADDR
        assert alloc.alloc(NORECS * OREC_STRIDE, align=BLOCK_SIZE) == (
            OREC_BASE
        )

    def test_blocks_match_addresses(self):
        assert CLOCK_BLOCK == block_of(CLOCK_ADDR)
        assert TOKEN_BLOCK == block_of(TOKEN_ADDR)
        assert OREC_BLOCK == block_of(OREC_BASE)

    def test_region_sits_above_workload_space(self):
        assert min(CLOCK_ADDR, TOKEN_ADDR, OREC_BASE) >= STM_META_BASE

    def test_clock_and_token_own_their_blocks(self):
        # no false sharing between the three
        assert len({CLOCK_BLOCK, TOKEN_BLOCK, OREC_BLOCK}) == 3

    def test_orec_table_is_block_aligned(self):
        assert OREC_BASE % BLOCK_SIZE == 0

    def test_orecs_false_share_cache_blocks(self):
        # 16-byte records: four orecs per 64-byte block, by design.
        per_block = BLOCK_SIZE // OREC_STRIDE
        first = {block_of(orec_addr(blk)) for blk in range(per_block)}
        assert len(first) == 1

    def test_orec_mapping_is_modular(self):
        assert orec_addr(3) == orec_addr(3 + NORECS)
        assert orec_addr(0) != orec_addr(1)
        assert orec_addr(NORECS - 1) == OREC_BASE + (NORECS - 1) * 16
        assert owner_addr(orec_addr(0)) == orec_addr(0) + 8
