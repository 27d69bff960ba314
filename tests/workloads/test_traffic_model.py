"""TrafficModel property tests: determinism, CDF shape, layout sharing.

The determinism contract is the foundation of the service suite:
``(spec, seed)`` must expand into a byte-identical request stream in
*any* process (the experiment cache and the golden differ both depend
on it), the bounded popularity table must be a real CDF (monotone,
tail pinned at exactly 1.0 — the PR 3 guard, re-proven here for the
new hot-rank + analytic-tail construction), and a model shared
between workloads must hand them disjoint simulated-memory ranges.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.service.traffic import (
    ARRIVAL_PROFILES,
    Request,
    TrafficModel,
    TrafficSpec,
    popularity_table,
)
from repro.workloads.registry import get_workload

skews = st.floats(min_value=0.2, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
hot_ranks = st.integers(min_value=1, max_value=600)
universes = st.integers(min_value=1, max_value=5_000_000)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = TrafficModel(TrafficSpec(), seed=7)
        b = TrafficModel(TrafficSpec(), seed=7)
        assert a.requests(200) == b.requests(200)
        assert a.stream_digest(200) == b.stream_digest(200)

    def test_different_seed_different_stream(self):
        spec = TrafficSpec()
        assert (
            TrafficModel(spec, seed=1).stream_digest(200)
            != TrafficModel(spec, seed=2).stream_digest(200)
        )

    def test_different_salt_different_substream(self):
        model = TrafficModel(TrafficSpec(), seed=1)
        assert model.stream_digest(200, salt=1) != model.stream_digest(
            200, salt=2
        )

    def test_regenerating_from_one_model_is_stable(self):
        model = TrafficModel(TrafficSpec(), seed=3)
        assert model.stream_digest(150) == model.stream_digest(150)

    def test_byte_identical_across_processes(self):
        """The cross-process half of the contract: a fresh interpreter
        (fresh hash randomization, fresh float state) must produce the
        same SHA-256 over the encoded stream."""
        spec = TrafficSpec(users=100_000, skew=1.3, hot_ranks=64,
                           burst="bursty", base_gap=32)
        local = TrafficModel(spec, seed=11).stream_digest(300, salt=5)
        script = (
            "from repro.workloads.service.traffic import "
            "TrafficModel, TrafficSpec\n"
            f"spec = TrafficSpec(users={spec.users}, skew={spec.skew}, "
            f"hot_ranks={spec.hot_ranks}, burst={spec.burst!r}, "
            f"base_gap={spec.base_gap})\n"
            "print(TrafficModel(spec, seed=11)"
            ".stream_digest(300, salt=5))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        assert out.stdout.strip() == local

    def test_encode_is_injective_on_fields(self):
        base = Request(index=1, user=2, gap=3, phase="peak", aux=4)
        for field, value in (
            ("index", 9), ("user", 9), ("gap", 9), ("phase", "night"),
            ("aux", 9),
        ):
            other = Request(**{**base.__dict__, field: value})
            assert other.encode() != base.encode()


class TestPopularityTable:
    @given(skews, hot_ranks, universes)
    @settings(max_examples=200, deadline=None)
    def test_cdf_monotone_and_tail_pinned(self, skew, hot, users):
        table = popularity_table(skew, hot, users)
        assert len(table) == min(hot, users) + 1
        assert all(
            later >= earlier
            for earlier, later in zip(table, table[1:])
        )
        assert all(0.0 < p <= 1.0 for p in table)
        # The PR 3 tail guard: the last entry is exactly 1.0, so no
        # uniform draw can fall off the end of the CDF.
        assert table[-1] == 1.0

    @given(skews)
    @settings(max_examples=50, deadline=None)
    def test_hot_ranks_clamped_to_universe(self, skew):
        table = popularity_table(skew, hot_ranks=512, users=10)
        assert len(table) == 11

    def test_skew_steepens_the_head(self):
        flat = popularity_table(0.5, 64, 1_000_000)
        steep = popularity_table(1.8, 64, 1_000_000)
        assert steep[0] > flat[0]

    def test_zero_hot_ranks_rejected(self):
        with pytest.raises(ValueError, match="hot rank"):
            popularity_table(1.1, 0, 100)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_draws_stay_in_universe(self, seed):
        model = TrafficModel(
            TrafficSpec(users=1000, hot_ranks=32), seed=1
        )
        rng = random.Random(seed)
        for _ in range(20):
            assert 0 <= model.draw_user(rng) < 1000

    def test_tail_draw_lands_in_cold_ranks(self):
        model = TrafficModel(
            TrafficSpec(users=10_000, hot_ranks=8, skew=0.3), seed=1
        )

        class TailRng(random.Random):
            # keep getrandbits in the class dict so randrange() stays
            # on the getrandbits-based _randbelow; overriding random()
            # alone would make randrange() loop on the pinned value
            getrandbits = random.Random.getrandbits

            def random(self):
                return 1.0 - 2**-53

        users = {model.draw_user(TailRng(0)) for _ in range(5)}
        assert all(8 <= u < 10_000 for u in users)

    def test_degenerate_universe_single_user(self):
        model = TrafficModel(TrafficSpec(users=1), seed=1)
        rng = random.Random(0)
        assert all(model.draw_user(rng) == 0 for _ in range(50))


class TestSpecAndArrivals:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="arrival profile"):
            TrafficSpec(burst="tsunami")

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError, match="users"):
            TrafficSpec(users=0)

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            TrafficSpec(skew=-1.0)

    @pytest.mark.parametrize("profile", sorted(ARRIVAL_PROFILES))
    def test_profile_fractions_cover_the_stream(self, profile):
        fractions = sum(f for _n, f, _i in ARRIVAL_PROFILES[profile])
        assert fractions == pytest.approx(1.0)

    @pytest.mark.parametrize("profile", sorted(ARRIVAL_PROFILES))
    def test_gaps_positive_and_phases_named(self, profile):
        model = TrafficModel(TrafficSpec(burst=profile), seed=5)
        names = {name for name, _f, _i in ARRIVAL_PROFILES[profile]}
        for req in model.requests(300):
            assert req.gap >= 1
            assert req.phase in names

    def test_burst_phase_compresses_gaps(self):
        steady = TrafficModel(TrafficSpec(burst="steady"), seed=9)
        requests = TrafficModel(
            TrafficSpec(burst="bursty"), seed=9
        ).requests(2000)
        burst_gaps = [
            r.gap for r in requests if r.phase.startswith("burst")
        ]
        calm_gaps = [r.gap for r in steady.requests(2000)]
        assert burst_gaps, "bursty profile produced no burst phase"
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(burst_gaps) < mean(calm_gaps) / 3

    def test_with_traffic_reshapes_spec(self):
        workload = get_workload("service-checkout")
        steeper = workload.with_traffic(skew=2.0, burst="steady")
        assert steeper.traffic_spec.skew == 2.0
        assert steeper.traffic_spec.burst == "steady"
        assert type(steeper) is type(workload)
        # the original is untouched, and no override is no copy
        assert workload.traffic_spec == type(workload).traffic_spec
        assert workload.with_traffic() is workload


class TestSharedAllocator:
    """Regression: two workloads sharing a TrafficModel must never
    collide on simulated-memory ranges (the old ``Workload._begin``
    handed every caller a fresh allocator starting at the same base).
    """

    def test_model_allocator_is_shared_and_monotonic(self):
        model = TrafficModel(TrafficSpec(), seed=1)
        alloc = model.allocator()
        assert model.allocator() is alloc
        first = alloc.alloc(64)
        second = model.allocator().alloc(64)
        assert second >= first + 64

    def test_cogenerated_workloads_get_disjoint_ranges(self):
        from repro.workloads.service import (
            RateLimiterWorkload,
            SessionStoreWorkload,
        )

        model = TrafficModel(TrafficSpec(), seed=1)
        session = SessionStoreWorkload()
        limiter = RateLimiterWorkload()
        first = session.generate_with(model, nthreads=2, scale=0.2)
        watermark = model.allocator().watermark
        second = limiter.generate_with(model, nthreads=2, scale=0.2)

        from repro.mem.allocator import BLOCK_SIZE

        first_blocks = set(first.memory.touched_blocks())
        second_blocks = set(second.memory.touched_blocks())
        assert first_blocks and second_blocks
        assert not first_blocks & second_blocks
        assert min(second_blocks) * BLOCK_SIZE >= watermark - BLOCK_SIZE

    def test_private_models_still_overlap(self):
        """Control: without sharing, both workloads use the same base
        addresses — the collision the shared allocator exists to
        prevent."""
        from repro.workloads.service import (
            RateLimiterWorkload,
            SessionStoreWorkload,
        )

        a = SessionStoreWorkload().generate(2, seed=1, scale=0.2)
        b = RateLimiterWorkload().generate(2, seed=1, scale=0.2)
        assert set(a.memory.touched_blocks()) & set(
            b.memory.touched_blocks()
        )
