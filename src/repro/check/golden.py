"""Golden-run differencing: sequential execution as a state oracle.

The second pillar of the correctness subsystem (after the replay
oracle): run the exact same generated workload *sequentially* — one
core, every thread's transactions back to back, which trivially cannot
lose updates or commit unserializably — then diff the parallel run's
final state against it.  The sequential run is the speedup baseline
(:func:`repro.sim.runner.run_sequential`); its final memory is the
golden image.

Two comparison levels:

* **invariants** — every workload-level invariant (hashtable sizes,
  refcounts, queue totals, conservation sums; see
  :class:`repro.workloads.base.GeneratedWorkload`) is evaluated on
  both final memories.  The golden run must pass all of them, the
  parallel run must pass all of them, and the two outcomes must agree
  per invariant.  This is the default pass/fail signal: it is valid
  for every workload, including those whose final memory bytes depend
  on the (legitimate) serialization order.  The parallel run must also
  leave no STM ownership word (fallback token, orec owner) held.
* **memory** — a byte-level diff of the two final memories, reported
  as differing block/byte counts and a bounded sample of differing
  addresses.  For order-sensitive workloads this is informational; for
  workloads whose transactions commute (``strict_memory=True``) any
  difference is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.address import BLOCK_SIZE, block_base, block_of
from repro.mem.memory import MainMemory
from repro.workloads.base import GeneratedWorkload

#: differing byte addresses a diff keeps as samples
MAX_SAMPLES = 16


@dataclass
class GoldenDiff:
    """Outcome of diffing a parallel run against the golden run."""

    blocks_compared: int = 0
    blocks_differing: int = 0
    bytes_differing: int = 0
    #: bounded sample of differing byte addresses
    sample_addrs: list[int] = field(default_factory=list)
    #: invariants the golden (sequential) run failed — a workload bug
    golden_failures: list[str] = field(default_factory=list)
    #: invariants (and STM ownership) the parallel run failed — a TM bug
    parallel_failures: list[str] = field(default_factory=list)
    strict_memory: bool = False

    @property
    def memory_identical(self) -> bool:
        return self.bytes_differing == 0

    @property
    def ok(self) -> bool:
        if self.golden_failures or self.parallel_failures:
            return False
        if self.strict_memory and not self.memory_identical:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "blocks_compared": self.blocks_compared,
            "blocks_differing": self.blocks_differing,
            "bytes_differing": self.bytes_differing,
            "sample_addrs": list(self.sample_addrs),
            "golden_failures": list(self.golden_failures),
            "parallel_failures": list(self.parallel_failures),
            "strict_memory": self.strict_memory,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GoldenDiff":
        return cls(
            blocks_compared=data["blocks_compared"],
            blocks_differing=data["blocks_differing"],
            bytes_differing=data["bytes_differing"],
            sample_addrs=list(data.get("sample_addrs", ())),
            golden_failures=list(data["golden_failures"]),
            parallel_failures=list(data["parallel_failures"]),
            strict_memory=data.get("strict_memory", False),
        )


def diff_memories(
    golden: MainMemory, parallel: MainMemory
) -> tuple[int, int, int, list[int]]:
    """Byte-diff two memories over the union of their touched blocks.

    Returns ``(blocks_compared, blocks_differing, bytes_differing,
    sample_addrs)``; ``sample_addrs`` holds the first
    :data:`MAX_SAMPLES` differing byte addresses.

    Blocks in the STM metadata region (at or above
    :data:`repro.stm.metadata.STM_META_BASE`) are excluded: orec
    versions and the global clock are simulator bookkeeping whose
    final values legitimately depend on the schedule (abort counts),
    and single-core reference runs don't materialize them at all.
    Workload data never lives up there.  (:func:`golden_diff` checks
    its ownership words instead.)
    """
    from repro.stm.metadata import STM_META_BASE

    meta_block = block_of(STM_META_BASE)
    blocks = sorted(
        block
        for block in (
            set(golden.touched_blocks()) | set(parallel.touched_blocks())
        )
        if block < meta_block
    )
    blocks_differing = 0
    bytes_differing = 0
    samples: list[int] = []
    for block in blocks:
        a = golden.read_block(block)
        b = parallel.read_block(block)
        if a == b:
            continue
        blocks_differing += 1
        base = block_base(block)
        for offset in range(BLOCK_SIZE):
            if a[offset] != b[offset]:
                bytes_differing += 1
                if len(samples) < MAX_SAMPLES:
                    samples.append(base + offset)
    return len(blocks), blocks_differing, bytes_differing, samples


def held_stm_ownership(memory: MainMemory) -> list[str]:
    """The STM ownership words *memory* still holds set, by name: a run
    ends with no transaction in flight, so each one is a leaked claim."""
    from repro.stm.metadata import (
        OREC_BLOCK,
        OREC_STRIDE,
        TOKEN_ADDR,
        TOKEN_BLOCK,
        owner_addr,
    )

    touched = memory.touched_blocks()
    held = []
    if TOKEN_BLOCK in touched and memory.read(TOKEN_ADDR):
        held.append("stm-fallback-token")
    if any(
        memory.read(owner_addr(block_base(block) + offset))
        for block in touched
        if block >= OREC_BLOCK
        for offset in range(0, BLOCK_SIZE, OREC_STRIDE)
    ):
        held.append("stm-orec-owner")
    return held


def golden_diff(
    generated: GeneratedWorkload,
    parallel_memory: MainMemory,
    golden_memory: MainMemory,
    strict_memory: bool = False,
) -> GoldenDiff:
    """Diff *parallel_memory* against *golden_memory*, the final
    memory of the workload's sequential run."""
    compared, blocks_diff, bytes_diff, samples = diff_memories(
        golden_memory, parallel_memory
    )
    golden_failures = [
        inv.name
        for inv in generated.check_invariants(golden_memory)
        if not inv.ok
    ]
    parallel_failures = [
        inv.name
        for inv in generated.check_invariants(parallel_memory)
        if not inv.ok
    ] + held_stm_ownership(parallel_memory)
    return GoldenDiff(
        blocks_compared=compared,
        blocks_differing=blocks_diff,
        bytes_differing=bytes_diff,
        sample_addrs=samples,
        golden_failures=golden_failures,
        parallel_failures=parallel_failures,
        strict_memory=strict_memory,
    )
