"""Derived views: contention heatmap and abort attribution."""

from repro.obs.events import EventStream
from repro.obs.export import chrome_trace
from repro.obs.views import (
    abort_attribution,
    abort_breakdown,
    contention_counts,
    contention_heatmap,
)


def contended_stream() -> EventStream:
    stream = EventStream()
    stream.emit("conflict", 0, cycle=10, block=64, holders=1)
    stream.emit("stall", 0, cycle=15, block=64, cycles=20)
    stream.emit("conflict", 1, cycle=20, block=64, holders=1)
    stream.emit("abort", 1, cycle=30, reason="conflict", by="remote",
                label="hot", block=64)
    stream.emit("steal", 0, cycle=40, block=65, writer=1)
    stream.emit("stall", 1, cycle=50, block=-1, cycles=10)  # barrier
    stream.emit("abort", 0, cycle=60, reason="capacity", by="self",
                label="big")
    stream.emit("commit", 0, cycle=70)
    return stream


class TestContentionCounts:
    def test_counts_by_block_and_kind(self):
        counts = contention_counts(contended_stream())
        assert counts[64] == {
            "conflict": 2, "stall": 1, "steal": 0, "abort": 1,
        }
        assert counts[65]["steal"] == 1

    def test_negative_and_missing_blocks_skipped(self):
        counts = contention_counts(contended_stream())
        # block=-1 (commit-order barrier) and the blockless abort are
        # excluded; only real blocks appear.
        assert set(counts) == {64, 65}

    def test_non_heat_kinds_ignored(self):
        stream = EventStream()
        stream.emit("commit", 0, cycle=1, block=64)
        assert contention_counts(stream) == {}


class TestContentionHeatmap:
    def test_renders_ranked_table(self):
        out = contention_heatmap(contended_stream())
        lines = out.splitlines()
        assert "block" in lines[0] and "heat" in lines[0]
        # block 64 (4 events) ranks above block 65 (1 event)
        assert lines[2].split()[0] == "64"
        assert lines[3].split()[0] == "65"
        assert "#" in lines[2]

    def test_empty(self):
        assert contention_heatmap(EventStream()) == (
            "(no contention events)"
        )

    def test_top_truncation_footer(self):
        stream = EventStream()
        for block in range(20):
            stream.emit("conflict", 0, cycle=block, block=block)
        out = contention_heatmap(stream, top=16)
        assert "+4 more blocks" in out


class TestAbortAttribution:
    def test_keys_reason_label_block(self):
        counts = abort_attribution(contended_stream())
        assert counts[("conflict", "hot", 64)] == 1
        assert counts[("capacity", "big", "-")] == 1

    def test_breakdown_table(self):
        out = abort_breakdown(contended_stream())
        assert "conflict" in out and "hot" in out
        assert out.splitlines()[-1].strip().endswith("total")
        assert "2  total" in out.splitlines()[-1]

    def test_no_aborts(self):
        assert abort_breakdown(EventStream()) == "(no aborts)"


class TestByteStability:
    """Same seed, same workload → byte-identical renders and export.

    The simulator is deterministic, so every derived artifact must be
    too — this is what makes traces diffable across runs and golden
    fixtures possible."""

    @staticmethod
    def _traced_run():
        from repro.sim.runner import run_workload
        from repro.obs.events import EventStream

        tracer = EventStream()
        run_workload(
            "python_opt", "retcon", ncores=4, seed=3, scale=0.05,
            tracer=tracer,
        )
        return tracer

    def test_views_and_export_stable(self):
        first = self._traced_run()
        second = self._traced_run()
        assert contention_heatmap(first) == contention_heatmap(second)
        assert abort_breakdown(first) == abort_breakdown(second)
        import json

        a = json.dumps(chrome_trace(first), sort_keys=True)
        b = json.dumps(chrome_trace(second), sort_keys=True)
        assert a == b
        assert len(first) > 0
