"""The typed metrics registry."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    render_snapshot,
    validate_latency_histogram,
)


class TestCounters:
    def test_create_on_first_use_and_reuse(self):
        reg = MetricsRegistry()
        a = reg.counter("txn.commits")
        a.inc()
        a.inc(2)
        assert reg.counter("txn.commits") is a
        assert a.value == 3

    def test_labels_key_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("txn.aborts", reason="conflict")
        reg.inc("txn.aborts", reason="conflict")
        reg.inc("txn.aborts", reason="capacity")
        assert reg.get("txn.aborts", reason="conflict").value == 2
        assert reg.get("txn.aborts", reason="capacity").value == 1
        assert reg.get("txn.aborts", reason="dependence") is None

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")


class TestGauges:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        reg.set("sim.makespan_cycles", 100)
        reg.set("sim.makespan_cycles", 250)
        assert reg.gauge("sim.makespan_cycles").value == 250


class TestHistograms:
    def test_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("txn.duration_cycles")
        for value in (1, 2, 4, 100):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 107
        assert hist.minimum == 1
        assert hist.maximum == 100
        assert hist.mean == pytest.approx(26.75)

    def test_power_of_two_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        hist.observe(0)   # bucket 0
        hist.observe(1)   # bucket 1
        hist.observe(7)   # bucket 3: [4, 8)
        hist.observe(8)   # bucket 4: [8, 16)
        assert hist.buckets[0] == 1
        assert hist.buckets[1] == 1
        assert hist.buckets[3] == 1
        assert hist.buckets[4] == 1

    def test_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for _ in range(99):
            hist.observe(4)
        hist.observe(1000)
        assert hist.percentile(50) == 7  # bucket [4,8) upper bound
        assert hist.percentile(100) >= 1000 - 1
        with pytest.raises(ValueError):
            hist.percentile(0)

    def test_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.observe("h", -1)

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0
        assert hist.snapshot()["min"] == 0


class TestRegistry:
    def test_len_and_sorted_iteration(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        reg.set("c", 1)
        assert len(reg) == 3
        assert [m.name for m in reg] == ["a", "b", "c"]

    def test_snapshot_keys(self):
        reg = MetricsRegistry()
        reg.inc("txn.commits", 5)
        reg.inc("core.aborts", 2, core=3)
        reg.observe("txn.duration_cycles", 10)
        snap = reg.snapshot()
        assert snap["txn.commits"] == 5
        assert snap["core.aborts{core=3}"] == 2
        assert snap["txn.duration_cycles"]["count"] == 1


class TestRenderSnapshot:
    def test_renders_every_type(self):
        reg = MetricsRegistry()
        reg.inc("txn.commits")
        reg.set("sim.ncores", 4)
        reg.observe("txn.duration_cycles", 32)
        lines = render_snapshot(reg.snapshot()).splitlines()
        assert lines[0].split() == ["sim.ncores", "4"]
        assert lines[1].split() == ["txn.commits", "1"]
        assert lines[2].startswith("txn.duration_cycles  n=1 ")

    def test_round_trips_registry_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("txn.commits", 7)
        reg.observe("txn.duration_cycles", 100)
        out = render_snapshot(reg.snapshot())
        assert "txn.commits" in out and "7" in out
        assert "n=1" in out

    def test_empty(self):
        assert render_snapshot({}) == "(no metrics recorded)"


def _snapshot(*values) -> dict:
    hist = MetricsRegistry().histogram("txn.duration_cycles")
    for value in values:
        hist.observe(value)
    return hist.snapshot()


class TestValidateLatencyHistogram:
    """The schema CI's latency-histogram check applies to a traced
    service point's ``txn.duration_cycles``."""

    def test_a_real_snapshot_passes(self):
        validate_latency_histogram(_snapshot(3, 40, 40, 700, 5000))

    def test_an_empty_snapshot_passes(self):
        validate_latency_histogram(_snapshot())

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"min": 9000}, "min 9000 > max"),
            ({"p50": 1 << 20}, "> p99"),
            ({"mean": 1.5}, "!= total/count"),
            ({"count": -1}, "'count' must be non-negative"),
            ({"max": True}, "'max' must be an integer"),
        ],
        ids=["min>max", "p50>p99", "mean", "negative-count", "bool"],
    )
    def test_an_inconsistent_snapshot_raises(self, override, message):
        snapshot = dict(_snapshot(3, 40, 40, 700, 5000), **override)
        with pytest.raises(ValueError, match=message) as info:
            validate_latency_histogram(snapshot, name="txn")
        assert "'txn'" in str(info.value)
