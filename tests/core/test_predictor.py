"""Conflict-trained tracking predictor (paper §5.1)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.predictor import BACKOFF, TRAIN_THRESHOLD, ConflictPredictor


class TestPredictor:
    def test_paper_constants(self):
        # §5.1: tracked after a conflict; 100 conflicts after a violation.
        assert TRAIN_THRESHOLD == 1
        assert BACKOFF == 100

    def test_untrained_blocks_not_tracked(self):
        predictor = ConflictPredictor()
        assert not predictor.should_track(5)

    def test_training_is_per_block(self):
        predictor = ConflictPredictor()
        predictor.observe_conflict(5)
        assert predictor.should_track(5)
        assert not predictor.should_track(6)

    def test_violation_trains_down_hard(self):
        predictor = ConflictPredictor()
        predictor.observe_conflict(5)
        assert predictor.should_track(5)
        predictor.observe_violation(5)
        assert not predictor.should_track(5)
        # Needs 100 fresh conflicts before retrying (paper §5.1).
        for _ in range(BACKOFF - 1):
            predictor.observe_conflict(5)
        assert not predictor.should_track(5)
        predictor.observe_conflict(5)
        assert predictor.should_track(5)

    def test_violation_on_an_untrained_block(self):
        predictor = ConflictPredictor()
        predictor.observe_violation(7)
        assert not predictor.should_track(7)
        predictor.observe_conflict(7)
        assert not predictor.should_track(7)

    def test_always_track_mode(self):
        predictor = ConflictPredictor(always_track=True)
        assert predictor.should_track(12345)


class _TwoCounterModel:
    """Reference: per block, conflicts seen and conflicts required."""

    def __init__(self) -> None:
        self.state: dict[int, list[int]] = {}

    def should_track(self, block: int) -> bool:
        entry = self.state.get(block)
        return entry is not None and entry[0] >= entry[1]

    def observe_conflict(self, block: int) -> None:
        self.state.setdefault(block, [0, TRAIN_THRESHOLD])[0] += 1

    def observe_violation(self, block: int) -> None:
        self.state[block] = [0, BACKOFF]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["conflict", "violation"]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=BACKOFF + 5),
        ),
        max_size=30,
    )
)
def test_matches_the_two_counter_model(events):
    predictor = ConflictPredictor()
    model = _TwoCounterModel()
    for kind, block, repeat in events:
        for _ in range(repeat if kind == "conflict" else 1):
            getattr(predictor, f"observe_{kind}")(block)
            getattr(model, f"observe_{kind}")(block)
            for probe in range(4):
                assert predictor.should_track(probe) == (
                    model.should_track(probe)
                )
