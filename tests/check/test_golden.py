"""The golden-run differ: sequential execution as a state oracle."""

from dataclasses import replace

import pytest

from repro.check.golden import (
    MAX_SAMPLES,
    GoldenDiff,
    diff_memories,
    golden_diff,
)
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.runner import run_sequential, run_workload
from repro.stm.metadata import TOKEN_ADDR, TOKEN_BLOCK, orec_addr, owner_addr
from repro.workloads.registry import get_workload


class TestDiffMemories:
    def test_identical_memories(self):
        memory = MainMemory()
        memory.write(4096, 7)
        compared, blocks, bytes_, samples = diff_memories(
            memory, memory.clone()
        )
        assert compared == 1
        assert blocks == 0 and bytes_ == 0 and samples == []

    def test_differing_byte_is_located(self):
        a = MainMemory()
        a.write(4096, 7)
        b = a.clone()
        b.write_bytes(4100, b"\xff")
        compared, blocks, bytes_, samples = diff_memories(a, b)
        assert compared == 1
        assert blocks == 1 and bytes_ == 1
        assert samples == [4100]

    def test_block_touched_on_one_side_only(self):
        a = MainMemory()
        a.write(4096, 7)
        b = MainMemory()
        b.write(8192, 7)
        compared, blocks, _bytes, _samples = diff_memories(a, b)
        assert compared == 2
        assert blocks == 2

    def test_sample_bound(self):
        a = MainMemory()
        a.write_bytes(4096, bytes(range(64)))
        b = MainMemory()
        b.write_bytes(4096, bytes(64))
        _, _, bytes_, samples = diff_memories(a, b)
        assert bytes_ == 63  # byte 0 is 0 on both sides
        assert samples == list(range(4097, 4097 + MAX_SAMPLES))


class TestGoldenDiffVerdict:
    def test_ok_requires_clean_invariants(self):
        diff = GoldenDiff(parallel_failures=["refcounts"])
        assert not diff.ok
        assert GoldenDiff().ok

    def test_golden_failure_is_a_workload_bug(self):
        assert not GoldenDiff(golden_failures=["conservation"]).ok

    def test_strict_memory_promotes_byte_diffs(self):
        diff = GoldenDiff(bytes_differing=1)
        assert diff.ok and not diff.memory_identical
        assert not GoldenDiff(bytes_differing=1, strict_memory=True).ok

    def test_round_trips_through_dict(self):
        diff = GoldenDiff(
            blocks_compared=5, blocks_differing=1, bytes_differing=3,
            sample_addrs=[4096], parallel_failures=["x"],
            strict_memory=True,
        )
        assert GoldenDiff.from_dict(diff.to_dict()) == diff


class TestEndToEnd:
    def test_parallel_retcon_matches_golden(self):
        generated = get_workload("python_opt").generate(
            nthreads=4, seed=1, scale=0.1
        )
        result = run_workload(
            "python_opt", "retcon", ncores=4, seed=1, scale=0.1,
            golden=True,
        )
        assert result.golden is not None
        assert result.golden["ok"]
        assert result.golden_ok and result.check_ok
        # the diff really compared something
        assert result.golden["blocks_compared"] > 0
        assert not result.golden["golden_failures"]
        assert generated.scripts  # workload generation is deterministic

    def test_strict_diff_flags_a_corrupted_final_state(self):
        generated = get_workload("python_opt").generate(
            nthreads=2, seed=1, scale=0.1
        )
        golden = run_sequential(generated).memory
        corrupted = golden.clone()
        block = sorted(golden.touched_blocks())[0]
        addr = block * 64
        corrupted.write_bytes(
            addr, bytes([golden.read_bytes(addr, 1)[0] ^ 0xFF])
        )
        diff = golden_diff(
            generated, corrupted, golden, strict_memory=True
        )
        assert diff.bytes_differing == 1
        assert diff.blocks_differing == 1
        assert diff.sample_addrs == [addr]
        assert not diff.ok
        assert not diff.golden_failures


class TestStmOwnershipAtQuiescence:
    """The metadata region stays out of the byte diff (version words
    depend on the schedule), but no run may end with the fallback
    token or an orec owner word still held."""

    def progressive_run(self):
        """python_opt on ``progressive`` with one-entry read/write sets,
        so capacity aborts escalate to the pessimistic fallback."""
        generated = get_workload("python_opt").generate(
            nthreads=4, seed=1, scale=0.1
        )
        config = replace(
            MachineConfig(), read_set_entries=1, write_set_entries=1
        ).with_cores(4)
        machine = Machine(
            config, "progressive", generated.scripts,
            generated.memory.clone(),
        )
        machine.run()
        assert machine.stats.total_stm_fallbacks() > 0
        return generated, machine, run_sequential(generated).memory

    def test_a_clean_progressive_run_holds_nothing(self):
        generated, machine, golden = self.progressive_run()
        assert TOKEN_BLOCK in machine.memory.touched_blocks()
        diff = golden_diff(generated, machine.memory, golden)
        assert diff.ok and diff.parallel_failures == []

    @pytest.mark.parametrize(
        "word,failure",
        [("token", "stm-fallback-token"), ("owner", "stm-orec-owner")],
    )
    def test_a_leaked_claim_is_a_named_parallel_failure(
        self, word, failure
    ):
        generated, machine, golden = self.progressive_run()
        leaked = (
            TOKEN_ADDR if word == "token"
            else owner_addr(orec_addr(12345))
        )
        machine.memory.write(leaked, 3)
        diff = golden_diff(generated, machine.memory, golden)
        assert diff.parallel_failures == [failure]
        assert not diff.ok and not diff.golden_failures
