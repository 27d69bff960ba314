"""TrafficModel property tests: determinism and CDF shape.

The determinism contract is the foundation of the service suite: a
seed must expand into a byte-identical request stream in *any*
process (the experiment cache and the golden differ both depend on
it), and the bounded popularity table must be a real CDF (monotone,
tail pinned at exactly 1.0 — the PR 3 guard, re-proven here for the
hot-rank + analytic-tail construction).
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.service.traffic import (
    DIURNAL,
    HOT_RANKS,
    USERS,
    Request,
    TrafficModel,
    popularity_table,
)

skews = st.floats(min_value=0.2, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
hot_ranks = st.integers(min_value=1, max_value=600)
universes = st.integers(min_value=1, max_value=5_000_000)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        """Literal digests recorded before the traffic model's shape
        became constants: the stream of every seed is unchanged."""
        model = TrafficModel(seed=1)
        assert model.stream_digest(200) == (
            "f3504cea8f1f6d2c6a8f20009352e47a"
            "5b3065779d3d3f5b059b6835293bb06f"
        )
        assert model.stream_digest(200, salt=3) == (
            "8734746aa0529677bcd8cf1d71462dff"
            "9d764b388fc0865d55f6a8668cd92561"
        )

    def test_different_seed_different_stream(self):
        assert (
            TrafficModel(seed=1).stream_digest(200)
            != TrafficModel(seed=2).stream_digest(200)
        )

    def test_different_salt_different_substream(self):
        model = TrafficModel(seed=1)
        assert model.stream_digest(200, salt=1) != model.stream_digest(
            200, salt=2
        )

    def test_regenerating_from_one_model_is_stable(self):
        model = TrafficModel(seed=3)
        assert model.stream_digest(150) == model.stream_digest(150)

    def test_byte_identical_across_processes(self):
        """The cross-process half of the contract: a fresh interpreter
        (fresh hash randomization, fresh float state) must produce the
        same SHA-256 over the encoded stream."""
        local = TrafficModel(seed=11).stream_digest(300, salt=5)
        script = (
            "from repro.workloads.service.traffic import TrafficModel\n"
            "print(TrafficModel(seed=11).stream_digest(300, salt=5))\n"
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
        model = TrafficModel(seed=1)
        rng = random.Random(seed)
        for _ in range(20):
            assert 0 <= model.draw_user(rng) < USERS

    def test_tail_draw_lands_in_cold_ranks(self):
        model = TrafficModel(seed=1)

        class TailRng(random.Random):
            # keep getrandbits in the class dict so randrange() stays
            # on the getrandbits-based _randbelow; overriding random()
            # alone would make randrange() loop on the pinned value
            getrandbits = random.Random.getrandbits

            def random(self):
                return 1.0 - 2**-53

        users = {model.draw_user(TailRng(0)) for _ in range(5)}
        assert all(HOT_RANKS <= u < USERS for u in users)


class TestArrivals:
    def test_gaps_positive_and_phases_named(self):
        names = {name for _end, name, _intensity in DIURNAL}
        for req in TrafficModel(seed=5).requests(300):
            assert req.gap >= 1
            assert req.phase in names

    def test_peak_phase_compresses_gaps(self):
        requests = TrafficModel(seed=9).requests(2000)

        def mean_gap(phase):
            gaps = [r.gap for r in requests if r.phase == phase]
            return sum(gaps) / len(gaps)

        assert mean_gap("peak") < mean_gap("night") / 3
