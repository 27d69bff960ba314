"""Wall-clock profiling harness behavior (PR 3 backfill).

``profile_point`` must report the *best* of N repeats and must keep
workload generation out of the simulation timing.  Both properties are
pinned with a fake clock and fake Machine/workload injected into the
module under test, so the assertions are exact, not statistical.
"""

from repro.analysis import profile as prof


class FakeClock:
    """A perf_counter whose reading advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class FakeGenerated:
    def __init__(self, clock: FakeClock, gen_cost: float) -> None:
        self.scripts = []
        self.memory = self
        self._clock = clock
        self._gen_cost = gen_cost

    def clone(self):
        return self


class FakeWorkload:
    def __init__(self, clock: FakeClock, gen_cost: float) -> None:
        self._clock = clock
        self._gen_cost = gen_cost

    def generate(self, ncores, seed=1, scale=1.0):
        # generation burns wall time that must NOT count as sim time
        self._clock.now += self._gen_cost
        return FakeGenerated(self._clock, self._gen_cost)


class FakeResult:
    cycles = 1000
    commits = 10


class FakeMachineFactory:
    """Each run() consumes the next scripted duration."""

    def __init__(self, clock: FakeClock, durations: list[float]) -> None:
        self.clock = clock
        self.durations = list(durations)
        self.runs = 0

    def __call__(self, config, system, scripts, memory):
        return self

    def run(self) -> FakeResult:
        self.clock.now += self.durations[self.runs]
        self.runs += 1
        return FakeResult()


def _profile_with(monkeypatch, durations, gen_cost=5.0):
    clock = FakeClock()
    factory = FakeMachineFactory(clock, durations)
    monkeypatch.setattr(prof.time, "perf_counter", clock.perf_counter)
    monkeypatch.setattr(prof, "Machine", factory)
    monkeypatch.setattr(
        prof, "get_workload", lambda name: FakeWorkload(clock, gen_cost)
    )
    point = prof.profile_point(
        "w", "s", ncores=4, seed=1, scale=0.1, repeats=len(durations)
    )
    return point, factory


class TestProfilePoint:
    def test_best_of_n_selection(self, monkeypatch):
        point, factory = _profile_with(monkeypatch, [3.0, 1.0, 2.0])
        assert factory.runs == 3
        assert point.sim_seconds == 1.0
        assert point.sim_seconds_mean == 2.0
        assert point.repeats == 3

    def test_generation_excluded_from_sim_timing(self, monkeypatch):
        point, _ = _profile_with(
            monkeypatch, [2.0, 2.0], gen_cost=100.0
        )
        assert point.gen_seconds == 100.0
        assert point.sim_seconds == 2.0

    def test_cycles_per_second_uses_best_repeat(self, monkeypatch):
        point, _ = _profile_with(monkeypatch, [4.0, 2.0])
        assert point.cycles == FakeResult.cycles
        assert point.cycles_per_second == FakeResult.cycles / 2.0
