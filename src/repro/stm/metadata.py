"""STM metadata layout in simulated memory.

The software path's bookkeeping lives at fixed addresses in the
*simulated* address space, so every metadata access pays real
coherence latency and contends for real cache blocks:

* a **global version clock** word on its own block — bumped by every
  writing STM commit; hardware transactions in hybrid mode *subscribe*
  to it (a plain speculative load at their first access), which is how
  an STM commit dooms every concurrently running hardware transaction
  (the concurrency cost Brown & Ravi quantify);
* a **fallback token** word on its own block — the progressive
  variant's mutual exclusion between pessimistic fallbacks;
* an **orec table**: one 16-byte ownership record per hash bucket
  (a version word and an owner word), block-aligned, so four orecs
  share a cache block and the table exhibits realistic false sharing.

Blocks hash to orecs by block number modulo :data:`NORECS`; hash
collisions only ever cause spurious aborts, never missed conflicts.
"""

from __future__ import annotations

from repro.mem.address import BLOCK_SIZE

#: base of the metadata region: far above any workload allocation
#: (workload generators start their allocators near the bottom of the
#: address space and the fuzzer's layouts stay below a few MB)
STM_META_BASE = 1 << 32

#: the global version clock word, alone on the region's first block
CLOCK_ADDR = STM_META_BASE
#: the progressive fallback token word, alone on the next block
TOKEN_ADDR = CLOCK_ADDR + BLOCK_SIZE
#: the block-aligned orec table, right after the token's block
OREC_BASE = TOKEN_ADDR + BLOCK_SIZE

CLOCK_BLOCK = CLOCK_ADDR // BLOCK_SIZE
TOKEN_BLOCK = TOKEN_ADDR // BLOCK_SIZE
OREC_BLOCK = OREC_BASE // BLOCK_SIZE

#: ownership records in the table
NORECS = 256

#: bytes per ownership record: version word + owner word
OREC_STRIDE = 16


def orec_addr(block: int) -> int:
    """Version-word address of the orec covering data *block*."""
    return OREC_BASE + (block % NORECS) * OREC_STRIDE


def owner_addr(orec: int) -> int:
    """Owner-word address for an orec's version-word address."""
    return orec + 8
