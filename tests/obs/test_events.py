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


class TestKeepLast:
    def test_ring_buffer_keeps_tail(self):
        stream = EventStream(limit=2, keep="last")
        fill(stream, ["begin", "commit", "steal", "abort"])
        assert [e.kind for e in stream] == ["steal", "abort"]
        # The *evicted* kinds are the dropped ones.
        assert stream.dropped_by_kind == {"begin": 1, "commit": 1}

    def test_limit_zero_drops_everything(self):
        # Regression: an empty ring had nothing to evict, and the first
        # emit raised IndexError instead of counting its own drop.
        stream = EventStream(limit=0, keep="last")
        fill(stream, ["begin", "commit", "commit"])
        assert len(stream) == 0
        assert stream.dropped_by_kind == {"begin": 1, "commit": 2}
        assert stream.total_emitted == 3

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError):
            EventStream(keep="middle")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            EventStream(limit=-1)


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
        assert loaded.limit == 3 and loaded.keep == "first"
        assert all(isinstance(e, TraceEvent) for e in loaded)

    def test_payload_is_json_safe(self):
        import json

        stream = EventStream(limit=1)
        fill(stream, ["begin", "commit"])
        json.dumps(stream.to_payload())  # must not raise


class TestTraceEvent:
    def test_cycle_property(self):
        assert TraceEvent("begin", 0, {"cycle": 7}).cycle == 7
        assert TraceEvent("begin", 0, {}).cycle is None

    def test_str_format(self):
        event = TraceEvent("steal", 3, {"block": 7, "writer": 1})
        assert str(event) == "[core 3] steal block=7 writer=1"
