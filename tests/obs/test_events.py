"""The structured event stream: bounding, drop accounting, payloads."""

import pytest

from repro.obs.events import EventStream, TraceEvent


def fill(stream: EventStream, kinds) -> None:
    for i, kind in enumerate(kinds):
        stream.emit(kind, core=i % 2, cycle=i)


class TestUnbounded:
    def test_records_everything(self):
        stream = EventStream()
        fill(stream, ["begin", "commit", "begin", "abort"])
        assert len(stream) == 4
        assert stream.dropped == 0
        assert stream.total_emitted == 4

    def test_queries(self):
        stream = EventStream()
        fill(stream, ["begin", "commit", "begin", "abort"])
        assert len(stream.of_kind("begin")) == 2
        assert [e.cycle for e in stream.of_kind("abort")] == [3]

    def test_summary_counts_kinds(self):
        stream = EventStream()
        fill(stream, ["begin", "commit", "begin", "abort"])
        assert stream.summary() == {"begin": 2, "commit": 1, "abort": 1}


class TestKeepFirst:
    def test_keeps_head_and_counts_drops_per_kind(self):
        stream = EventStream(limit=2)
        fill(stream, ["begin", "commit", "steal", "steal", "abort"])
        assert [e.kind for e in stream] == ["begin", "commit"]
        # Regression: the old Tracer collapsed drops into one scalar;
        # per-kind accounting must attribute each dropped event.
        assert stream.dropped_by_kind == {"steal": 2, "abort": 1}
        assert stream.dropped == 3
        assert stream.total_emitted == 5

    def test_summary_surfaces_drops(self):
        stream = EventStream(limit=1)
        fill(stream, ["begin", "commit", "commit"])
        assert stream.summary() == {
            "begin": 1, "commit:dropped": 2,
        }

    def test_limit_zero_drops_everything(self):
        stream = EventStream(limit=0)
        fill(stream, ["begin", "commit"])
        assert len(stream) == 0
        assert stream.dropped_by_kind == {"begin": 1, "commit": 1}

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            EventStream(limit=-1)

    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_drops_and_accounting_with_mixed_shapes(self, limit):
        offered = [
            ("begin", 0, {"ts": 1, "restart": False}),
            ("commit", 1, {}),
            ("stall", 0, {"cycles": 3, "block": 7, "cycle": 9, "label": "a"}),
            ("abort", 1, {"reason": "conflict"}),
            ("stall", 1, {"cycles": 4, "block": 8, "cycle": 10, "label": "b"}),
        ]
        stream = EventStream(limit=limit)
        for kind, core, detail in offered:
            stream.record(kind, core, dict(detail))
        kept, lost = offered[:limit], offered[limit:]
        assert [(e.kind, e.core, e.detail) for e in stream] == kept
        dropped: dict[str, int] = {}
        for kind, _core, _detail in lost:
            dropped[kind] = dropped.get(kind, 0) + 1
        assert stream.dropped_by_kind == dropped
        assert len(stream) == limit
        assert stream.total_emitted == len(offered)


class TestPayloadRoundTrip:
    def test_round_trip_preserves_events_and_drops(self):
        stream = EventStream(limit=3)
        fill(stream, ["begin", "commit", "steal", "steal"])
        payload = stream.to_payload()
        loaded = EventStream.from_payload(payload)
        assert [e.to_dict() for e in loaded] == [
            e.to_dict() for e in stream
        ]
        assert loaded.dropped_by_kind == stream.dropped_by_kind
        assert loaded.limit == 3 and payload["keep"] == "first"
        assert all(isinstance(e, TraceEvent) for e in loaded)

    def test_payload_is_json_safe(self):
        import json

        stream = EventStream(limit=1)
        fill(stream, ["begin", "commit"])
        json.dumps(stream.to_payload())  # must not raise

    def test_round_trip_keeps_a_nested_list_value(self):
        import json

        stream = EventStream()
        stream.emit("repair", 2, cycle=5, blocks=[[1, 2], [3]], why="x")
        payload = json.loads(json.dumps(stream.to_payload()))
        (event,) = EventStream.from_payload(payload)
        assert event == TraceEvent(
            "repair", 2, {"cycle": 5, "blocks": [[1, 2], [3]], "why": "x"}
        )


class TestStorage:
    """Events are slots in one buffer, built back only when read."""

    SHAPES = [
        {},
        {"cycle": 1},
        {"reason": "conflict", "by": "self"},
        {"cycles": 3, "block": 7, "cycle": 9, "label": "loop"},
    ]

    def test_interleaved_shapes_read_back_in_order(self):
        stream = EventStream()
        offered = [
            (f"k{i % 4}", i % 3,
             {key: (value, i) for key, value in self.SHAPES[i % 4].items()})
            for i in range(12)
        ]
        for kind, core, detail in offered:
            stream.record(kind, core, detail)
        read = [(e.kind, e.core, e.detail) for e in stream]
        assert read == offered
        assert [list(e.detail) for e in stream] == [
            list(detail) for _kind, _core, detail in offered
        ]
        assert stream.events == [TraceEvent(*event) for event in offered]
        assert stream.of_kind("k3") == [
            TraceEvent(*event) for event in offered if event[0] == "k3"
        ]
        assert stream.of_kind("other") == []

    def test_detail_is_captured_at_record_time(self):
        stream = EventStream()
        detail = {"block": 7}
        stream.record("steal", 0, detail)
        detail["block"] = 8
        detail["cycle"] = 3
        assert [e.detail for e in stream] == [{"block": 7}]

    def test_events_is_a_fresh_list(self):
        stream = EventStream()
        stream.emit("begin", 0)
        stream.events.append(TraceEvent("commit", 0, {}))
        assert len(stream) == 1 and len(stream.events) == 1

    def test_counts_agree_with_what_was_offered(self):
        import random

        rng = random.Random(0)
        kinds = ["begin", "commit", "abort", "stall", "steal"]
        stream = EventStream(limit=6_000)
        offered = []
        for i in range(10_000):
            kind = rng.choice(kinds)
            shape = self.SHAPES[rng.randrange(4)]
            offered.append(kind)
            stream.record(kind, i % 4, dict(shape))
        recorded: dict[str, int] = {}
        for kind in offered[:6_000]:
            recorded[kind] = recorded.get(kind, 0) + 1
        dropped: dict[str, int] = {}
        for kind in offered[6_000:]:
            dropped[kind] = dropped.get(kind, 0) + 1
        assert len(stream) == 6_000
        assert stream.total_emitted == 10_000
        assert stream.dropped == 4_000
        assert stream.summary() == {
            **recorded,
            **{f"{kind}:dropped": n for kind, n in dropped.items()},
        }

    def test_footprint_per_event(self):
        import tracemalloc

        values = [(i, 1_000 + i, 50_000 + i, f"L{i % 7}")
                  for i in range(20_000)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream = EventStream()
            for cycles, block, cycle, label in values:
                stream.record("stall", 1, {
                    "cycles": cycles, "block": block, "cycle": cycle,
                    "label": label,
                })
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(stream) == 20_000
        # A TraceEvent plus its own dict per event would take ~248 B.
        assert used / 20_000 <= 80


class TestTraceEvent:
    def test_cycle_property(self):
        assert TraceEvent("begin", 0, {"cycle": 7}).cycle == 7
        assert TraceEvent("begin", 0, {}).cycle is None

    def test_str_format(self):
        event = TraceEvent("steal", 3, {"block": 7, "writer": 1})
        assert str(event) == "[core 3] steal block=7 writer=1"
