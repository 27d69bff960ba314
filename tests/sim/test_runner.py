"""High-level runner: speedups, baselines, invariants."""

from dataclasses import replace

import pytest

from repro.sim.config import MachineConfig
from repro.sim.machine import SimulationTimeout
from repro.sim.runner import (
    generate_and_baseline,
    run_sequential,
    run_workload,
)
from repro.workloads.registry import get_workload


class TestRunner:
    def test_result_fields(self):
        result = run_workload("kmeans", "eager", ncores=2, scale=0.1)
        assert result.workload == "kmeans"
        assert result.system == "eager"
        assert result.ncores == 2
        assert result.cycles > 0
        assert result.seq_cycles > 0
        assert result.commits > 0
        assert abs(
            sum(result.breakdown.values()) - 1.0
        ) < 1e-9
        assert result.invariants
        assert result.invariants_ok

    def test_seq_cycles_can_be_supplied(self):
        generated, sequential = generate_and_baseline(
            "kmeans", ncores=2, scale=0.1
        )
        result = run_workload(
            "kmeans", "eager", ncores=2, scale=0.1,
            sequential=replace(sequential, cycles=12345),
        )
        assert result.seq_cycles == 12345
        assert result.speedup == 12345 / result.cycles

    def test_single_core_speedup_near_one(self):
        """One core running the parallel build must track the
        sequential baseline closely (no conflicts, same work)."""
        result = run_workload("ssca2", "eager", ncores=1, scale=0.2)
        assert 0.9 < result.speedup < 1.1

    def test_sequential_run_commits_everything(self):
        generated = get_workload("kmeans").generate(2, scale=0.1)
        seq = run_sequential(generated, MachineConfig())
        expected = sum(s.txn_count() for s in generated.scripts)
        assert seq.stats.total_commits() == expected
        assert seq.stats.total_aborts() == 0

    def test_generate_and_baseline(self):
        generated, sequential = generate_and_baseline(
            "kmeans", ncores=2, scale=0.1
        )
        assert sequential.cycles > 0
        assert len(generated.scripts) == 2

    def test_precomputed_generation_reused(self):
        """run_workload(generated=...) must skip regeneration and
        produce exactly the result of the regenerating path."""
        generated, sequential = generate_and_baseline(
            "genome", ncores=2, scale=0.1, seed=9
        )
        reused = run_workload(
            "genome", "retcon", ncores=2, scale=0.1, seed=9,
            sequential=sequential, generated=generated,
        )
        regenerated = run_workload(
            "genome", "retcon", ncores=2, scale=0.1, seed=9,
            sequential=sequential,
        )
        assert reused.to_dict() == regenerated.to_dict()

    def test_generated_workload_survives_reuse(self):
        """Back-to-back runs from one GeneratedWorkload are identical
        (scripts and initial memory are not mutated by a run)."""
        generated, sequential = generate_and_baseline(
            "kmeans", ncores=2, scale=0.1
        )
        first = run_workload(
            "kmeans", "eager", ncores=2, scale=0.1,
            sequential=sequential, generated=generated,
        )
        second = run_workload(
            "kmeans", "eager", ncores=2, scale=0.1,
            sequential=sequential, generated=generated,
        )
        assert first.to_dict() == second.to_dict()

    def test_result_json_round_trip(self):
        from repro.sim.runner import WorkloadResult

        result = run_workload("kmeans", "eager", ncores=2, scale=0.1)
        clone = WorkloadResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.speedup == result.speedup
        assert clone.invariants_ok == result.invariants_ok

    def test_same_seed_same_cycles(self):
        first = run_workload("genome", "retcon", ncores=2, scale=0.1,
                             seed=9)
        second = run_workload("genome", "retcon", ncores=2, scale=0.1,
                              seed=9)
        assert first.cycles == second.cycles
        assert first.aborts == second.aborts


class TestBaselineWatchdogLabel:
    """A watchdog hit in the sequential baseline names its point, not
    just the ``eager`` machine it runs on."""

    @pytest.fixture(autouse=True)
    def one_core_bound(self, monkeypatch):
        from repro.sim.machine import Machine

        run = Machine.run
        monkeypatch.setattr(
            Machine, "run",
            lambda self, max_cycles=500_000_000: run(
                self, 1_000 if len(self.cores) == 1 else max_cycles
            ),
        )

    def test_run_workload(self):
        with pytest.raises(SimulationTimeout) as excinfo:
            run_workload("kmeans", "eager", ncores=2, seed=3, scale=0.1)
        assert excinfo.value.label == (
            "kmeans/sequential ncores=2 seed=3 scale=0.1"
        )

    def test_generate_and_baseline(self):
        with pytest.raises(SimulationTimeout) as excinfo:
            generate_and_baseline("kmeans", ncores=2, seed=3, scale=0.1)
        assert excinfo.value.label == (
            "kmeans/sequential ncores=2 seed=3 scale=0.1"
        )

    def test_fuzz_case(self):
        from repro.fuzz.diff import run_case
        from repro.fuzz.gen import FUZZ_PROFILES, generate_case

        case = generate_case(0, FUZZ_PROFILES["fuzz-mixed"])
        with pytest.raises(SimulationTimeout) as excinfo:
            run_case(case, backends=("eager",))
        assert excinfo.value.label == f"fuzz sequential {case.label()}"
