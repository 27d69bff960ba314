"""Generator determinism, profile constraints, and case round-trip."""

from repro.fuzz.gen import (
    FUZZ_PROFILES,
    FuzzCase,
    GeneratorConfig,
    config_hash,
    generate_case,
)
from repro.fuzz.genes import G_PRIV_STORE, G_RMW, G_WORK
from repro.sim.runner import run_sequential


class TestDeterminism:
    def test_same_seed_same_case(self):
        for profile, cfg in FUZZ_PROFILES.items():
            a = generate_case(11, cfg, origin=profile)
            b = generate_case(11, cfg, origin=profile)
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        cfg = FUZZ_PROFILES["fuzz-mixed"]
        assert (
            generate_case(1, cfg).threads != generate_case(2, cfg).threads
        )

    def test_initial_memory_deterministic(self):
        cfg = FUZZ_PROFILES["fuzz-mixed"]
        case = generate_case(5, cfg)
        a, b = case.initial_memory(), case.initial_memory()
        for slot in range(cfg.shared_slots):
            addr = case.layout.slot_addr(slot)
            assert a.read(addr) == b.read(addr)

    def test_config_hash_stable_and_distinct(self):
        assert config_hash(GeneratorConfig()) == config_hash(
            GeneratorConfig()
        )
        assert config_hash(GeneratorConfig()) != config_hash(
            GeneratorConfig(zipf_skew=1.2)
        )


class TestCommutativeProfile:
    def test_only_commutative_genes(self):
        cfg = FUZZ_PROFILES["fuzz-rmw"]
        assert cfg.commutative
        for seed in range(10):
            case = generate_case(seed, cfg)
            for thread in case.threads:
                for txn in thread:
                    for gene in txn:
                        assert gene[0] in (G_RMW, G_PRIV_STORE, G_WORK)
                        if gene[0] == G_RMW:
                            _, _slot, _delta, _rd, size, offset = gene
                            assert (size, offset) == (8, 0)

    def test_expectation_matches_golden_run(self):
        """The closed-form expected-value invariant agrees with an
        actual sequential execution, and the workload is marked for
        strict golden comparison."""
        cfg = FUZZ_PROFILES["fuzz-rmw"]
        for seed in (0, 3, 9):
            case = generate_case(seed, cfg)
            generated = case.build_workload()
            assert generated.strict_golden
            memory = run_sequential(generated).memory
            results = generated.check_invariants(memory)
            assert all(r.ok for r in results), [
                r.detail for r in results if not r.ok
            ]

    def test_mixed_profile_not_strict(self):
        case = generate_case(0, FUZZ_PROFILES["fuzz-mixed"])
        assert not case.build_workload().strict_golden


class TestCaseRoundTrip:
    def test_to_from_dict(self):
        case = generate_case(42, FUZZ_PROFILES["fuzz-branchy"], nthreads=3)
        back = FuzzCase.from_dict(case.to_dict())
        assert back.to_dict() == case.to_dict()
        assert back.config == case.config
        assert back.threads == case.threads

    def test_counts_and_label(self):
        case = generate_case(1, FUZZ_PROFILES["fuzz-mixed"], nthreads=2)
        assert case.txn_count() == 2 * case.config.txns_per_thread
        assert case.instruction_count() > 0
        assert f"seed={case.seed}" in case.label()

    def test_scripts_one_per_thread(self):
        case = generate_case(1, FUZZ_PROFILES["fuzz-mixed"], nthreads=3)
        assert len(case.scripts()) == 3
