"""Simulated machine configuration (paper Table 1).

Defaults reproduce the paper's configuration:

===========================  =================================================
Processor                    32 in-order x86 cores, 1 IPC
L1 cache                     64 KB, 4-way set associative, 64 B blocks
L2 cache                     private, 1 MB, 4-way, 64 B blocks, 10-cycle hit
Memory                       100-cycle DRAM lookup latency
Permissions-only cache       4 KB, 4-way set associative
Coherence                    directory-based protocol, 20-cycle hop latency
RETCON structures            16-entry initial (original) value buffer,
                             16-entry constraint buffer,
                             32-entry symbolic store buffer
===========================  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.buffers import DEFAULT_IVB_ENTRIES, DEFAULT_SSB_ENTRIES
from repro.core.constraints import DEFAULT_CONSTRAINT_ENTRIES
from repro.mem.address import BLOCK_SIZE


def _fmt_entries(entries: Optional[int]) -> str:
    return "unlimited" if entries is None else f"{entries}-entry"


@dataclass(frozen=True)
class MachineConfig:
    """All machine parameters, with Table 1 defaults.

    Two Table 1 parameters are constants, not fields: a core retires
    one instruction per cycle (1 IPC), and the block size is
    :data:`repro.mem.address.BLOCK_SIZE`, which every block index uses.
    Values the paper fixes and nothing varies are constants in the
    module that uses them: the predictor's training
    (:mod:`repro.core.predictor`), the stall retry interval and the
    zero-cycle rollback (:mod:`repro.sim.cpu`), and the STM layout and
    barrier costs (:mod:`repro.stm`).
    """

    # Processor
    ncores: int = 32

    # Caches (sizes in bytes)
    l1_bytes: int = 64 * 1024
    l1_assoc: int = 4
    l2_bytes: int = 1024 * 1024
    l2_assoc: int = 4
    l2_hit_cycles: int = 10
    dram_cycles: int = 100
    perm_cache_bytes: int = 4 * 1024
    perm_cache_assoc: int = 4

    # Coherence
    hop_cycles: int = 20

    # RETCON structures (paper §5.1: 16-entry original value buffer,
    # 16-entry constraint buffer, 32-entry symbolic store buffer).
    # Defaults are single-sourced from the buffer modules; None means
    # unlimited.
    ivb_entries: Optional[int] = DEFAULT_IVB_ENTRIES
    constraint_entries: Optional[int] = DEFAULT_CONSTRAINT_ENTRIES
    ssb_entries: Optional[int] = DEFAULT_SSB_ENTRIES

    # Speculative read/write-set bounds for the HTM backends, modeling
    # a capacity-limited L1/signature (Kafousis-style limited-set HTM).
    # None (the default) keeps the historical unbounded behavior; an
    # integer bound turns overflow into a capacity abort (pure HTM
    # serializes the retry OneTM-style; hybrids escalate to STM).
    read_set_entries: Optional[int] = None
    write_set_entries: Optional[int] = None

    # Idealized RETCON (paper §5.3 "Comparison to idealized system"):
    # unlimited structures, parallel commit-time reacquisition, free
    # commit-time stores.
    idealized: bool = False

    # Hybrid TM (HyTM): HTM attempts a transaction gets before its
    # next restart escalates to the STM slow path.  0 means every
    # transaction runs STM from its first attempt; only the hybrid-*
    # and progressive backends consult it.
    retry_budget: int = 4

    def rows(self) -> list[tuple[str, str]]:
        """Return (parameter, value) rows in Table 1's format."""
        return [
            ("Processor", f"{self.ncores} in-order cores, 1 IPC"),
            (
                "L1 cache",
                f"{self.l1_bytes // 1024} KB, {self.l1_assoc}-way set "
                f"associative, {BLOCK_SIZE}B blocks",
            ),
            (
                "L2 cache",
                f"Private, {self.l2_bytes // (1024 * 1024)}MB, "
                f"{self.l2_assoc}-way set associative, "
                f"{BLOCK_SIZE}B blocks, {self.l2_hit_cycles}-cycle "
                "hit latency",
            ),
            ("Memory", f"{self.dram_cycles} cycles DRAM lookup latency"),
            (
                "Permissions-only cache",
                f"{self.perm_cache_bytes // 1024}KB, "
                f"{self.perm_cache_assoc}-way set associative",
            ),
            (
                "Coherence",
                f"Directory-based protocol, {self.hop_cycles} cycle hop "
                "latency",
            ),
            (
                "RETCON structures",
                f"{_fmt_entries(self.ivb_entries)} original value "
                "buffer, "
                f"{_fmt_entries(self.constraint_entries)} constraint "
                "buffer, "
                f"{_fmt_entries(self.ssb_entries)} symbolic store "
                "buffer",
            ),
            (
                "Speculative sets",
                f"{_fmt_entries(self.read_set_entries)} read set, "
                f"{_fmt_entries(self.write_set_entries)} write set",
            ),
        ]

    def with_cores(self, ncores: int) -> "MachineConfig":
        """Return a copy with a different core count."""
        return replace(self, ncores=ncores)

    def idealize(self) -> "MachineConfig":
        """Return the §5.3 idealized variant of this configuration."""
        return replace(self, idealized=True)


def small_test_config(ncores: int = 2, **overrides) -> MachineConfig:
    """A tiny configuration for unit tests (small caches, 2 cores)."""
    params = dict(
        ncores=ncores,
        l1_bytes=1024,
        l1_assoc=2,
        l2_bytes=4096,
        l2_assoc=2,
        perm_cache_bytes=256,
        perm_cache_assoc=2,
    )
    params.update(overrides)
    return MachineConfig(**params)
