"""Chrome-trace export: structure, schema validation, golden fixture."""

import json
from pathlib import Path

import pytest

from repro.obs.events import EventStream
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

GOLDEN = Path(__file__).parent.parent / "golden" / (
    "trace_export_fixture.json"
)


def fixture_stream() -> EventStream:
    """A small deterministic trace exercising every exporter path:
    commit and abort spans, instants, a begin whose end was dropped."""
    stream = EventStream(limit=12)
    stream.emit("begin", 0, cycle=0, label="alpha")
    stream.emit("begin", 1, cycle=5, label="beta")
    stream.emit("conflict", 1, cycle=20, block=64, holders=1)
    stream.emit("stall", 1, cycle=25, block=64, cycles=20)
    stream.emit("abort", 1, cycle=45, reason="conflict", by="remote",
                label="beta", block=64)
    stream.emit("steal", 0, cycle=50, block=64, writer=1)
    stream.emit("repair", 0, cycle=60, addr=4096, value=7)
    stream.emit("commit", 0, cycle=70, label="alpha")
    stream.emit("begin", 1, cycle=80, label="beta", restart=True)
    stream.emit("forward", 1, cycle=90, block=65, source=0)
    # This begin never sees its end: the exporter must truncate it.
    stream.emit("begin", 0, cycle=95, label="alpha")
    stream.emit("commit", 1, cycle=100, label="beta")
    stream.emit("commit", 0, cycle=110, label="alpha")  # dropped
    return stream


class TestChromeTrace:
    def test_validates(self):
        validate_chrome_trace(chrome_trace(fixture_stream()))

    def test_metadata_tracks(self):
        payload = chrome_trace(fixture_stream(), label="fixture")
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro machine [fixture]" in names
        assert "core 0" in names and "core 1" in names

    def test_spans_pair_begin_with_end(self):
        payload = chrome_trace(fixture_stream())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        outcomes = sorted(s["args"]["outcome"] for s in spans)
        # alpha commit, beta abort, beta commit, truncated alpha
        assert outcomes == ["abort", "commit", "commit", "truncated"]
        abort = next(
            s for s in spans if s["args"]["outcome"] == "abort"
        )
        assert abort["ts"] == 5 and abort["dur"] == 40
        assert abort["args"]["reason"] == "conflict"
        assert abort["args"]["block"] == 64

    def test_instants(self):
        payload = chrome_trace(fixture_stream())
        instants = [
            e for e in payload["traceEvents"] if e["ph"] == "i"
        ]
        kinds = sorted(e["name"] for e in instants)
        assert kinds == [
            "conflict", "forward", "repair", "stall", "steal",
        ]
        assert all(e["s"] == "t" for e in instants)

    def test_drop_accounting_in_other_data(self):
        payload = chrome_trace(fixture_stream())
        assert payload["otherData"]["dropped_by_kind"] == {
            "commit": 1
        }

    def test_truncated_span_closed_at_max_cycle(self):
        payload = chrome_trace(fixture_stream())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        truncated = next(
            s for s in spans if s["args"]["outcome"] == "truncated"
        )
        assert truncated["ts"] == 95
        assert truncated["ts"] + truncated["dur"] == 100  # max cycle

    def test_end_without_begin_skipped(self):
        stream = EventStream()
        stream.emit("commit", 0, cycle=10)
        payload = chrome_trace(stream)
        assert not [
            e for e in payload["traceEvents"] if e["ph"] == "X"
        ]

    def test_stale_begin_closed_before_new_one(self):
        stream = EventStream()
        stream.emit("begin", 0, cycle=0, label="a")
        stream.emit("begin", 0, cycle=50, label="a")
        stream.emit("commit", 0, cycle=90, label="a")
        spans = [
            e for e in chrome_trace(stream)["traceEvents"]
            if e["ph"] == "X"
        ]
        assert [s["args"]["outcome"] for s in spans] == [
            "truncated", "commit",
        ]


class TestGoldenFixture:
    def test_matches_golden_bytes(self, tmp_path):
        """The exporter's output for the fixture stream is pinned
        byte-for-byte; regenerate with
        ``python -m tests.obs.test_export`` after intentional format
        changes."""
        out = tmp_path / "trace.json"
        write_chrome_trace(
            out, chrome_trace(fixture_stream(), label="fixture")
        )
        assert out.read_text() == GOLDEN.read_text()

    def test_golden_itself_validates(self):
        validate_chrome_trace(json.loads(GOLDEN.read_text()))


class TestValidator:
    def test_top_level_must_be_dict(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_trace_events_must_be_list(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": {}})

    @pytest.mark.parametrize(
        "event",
        [
            {"ph": "B", "name": "x", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "X", "name": "", "pid": 0, "tid": 0, "ts": 0,
             "dur": 1},
            {"ph": "X", "name": "x", "pid": "0", "tid": 0, "ts": 0,
             "dur": 1},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1,
             "dur": 1},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0,
             "dur": -1},
            {"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": 0,
             "s": "q"},
            {"ph": "M", "name": "weird", "pid": 0, "tid": 0,
             "args": {"name": "y"}},
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {}},
        ],
        ids=[
            "bad-phase", "empty-name", "str-pid", "negative-ts",
            "missing-dur", "negative-dur", "bad-scope",
            "unknown-metadata", "metadata-without-name",
        ],
    )
    def test_rejects(self, event):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [event]})

    def test_bad_display_unit(self):
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [], "displayTimeUnit": "s"}
            )


class TestFigure2Export:
    @pytest.mark.parametrize("system", ["retcon", "eager-abort"])
    def test_schema_valid_and_has_spans(self, system):
        from repro.exp.engine import run_point_with_trace
        from repro.exp.spec import Point

        _result, events, _metrics = run_point_with_trace(
            Point("figure2", system, ncores=2), cache=None
        )
        payload = chrome_trace(events, label=f"figure2/{system}")
        validate_chrome_trace(payload)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert spans, "figure2 must produce transaction spans"
        assert {s["tid"] for s in spans} <= {0, 1}
        assert all(s["name"] == "counter" for s in spans)


if __name__ == "__main__":  # regenerate the golden fixture
    write_chrome_trace(
        GOLDEN, chrome_trace(fixture_stream(), label="fixture")
    )
    print(f"wrote {GOLDEN}")
