"""Timeline rendering."""

from repro.analysis.figures import FIGURE2_SYSTEMS
from repro.analysis.timeline import render_timeline
from repro.exp.engine import run_point_with_trace
from repro.exp.spec import Point
from repro.obs.events import EventStream


def figure2_timeline(system: str, scale: float) -> str:
    """The ``figure2`` workload's timeline on *system*: ``scale`` 0.5
    runs one transaction per core, 1.0 two."""
    _result, events, _metrics = run_point_with_trace(
        Point("figure2", system, ncores=2, scale=scale), cache=None
    )
    return render_timeline(events, ncores=2)


class TestRenderTimeline:
    def test_empty_tracer(self):
        assert "no timestamped" in render_timeline(EventStream(), ncores=2)

    def test_lanes_and_glyphs(self):
        tracer = EventStream()
        tracer.emit("begin", 0, cycle=0)
        tracer.emit("commit", 0, cycle=100)
        tracer.emit("begin", 1, cycle=10)
        tracer.emit("abort", 1, cycle=50, reason="conflict")
        out = render_timeline(tracer, ncores=2, width=20)
        lines = out.splitlines()
        assert lines[1].startswith("core 0: B")
        assert lines[1].rstrip().endswith("C")
        assert "A" in lines[2]

    def test_untimestamped_events_skipped(self):
        tracer = EventStream()
        tracer.emit("begin", 0)  # no cycle
        tracer.emit("commit", 0, cycle=10)
        out = render_timeline(tracer, ncores=1, width=10)
        assert "B" not in out.splitlines()[1]

    def test_commit_precedence_over_repair(self):
        tracer = EventStream()
        tracer.emit("repair", 0, cycle=50, addr=1, value=2)
        tracer.emit("commit", 0, cycle=50)
        out = render_timeline(tracer, ncores=1, width=10)
        assert "C" in out and "R" not in out.splitlines()[1]

    def test_idle_cores_omitted(self):
        tracer = EventStream()
        tracer.emit("commit", 0, cycle=5)
        out = render_timeline(tracer, ncores=4, width=10)
        assert "core 3" not in out

    def test_core_beyond_ncores_grows_lanes(self):
        # Regression: a trace from a wider machine (or a stale ncores
        # argument) used to raise IndexError on lanes[event.core].
        tracer = EventStream()
        tracer.emit("begin", 0, cycle=0)
        tracer.emit("commit", 5, cycle=10)
        out = render_timeline(tracer, ncores=2, width=10)
        assert "core 5" in out

    def test_zero_ncores_derived_from_trace(self):
        tracer = EventStream()
        tracer.emit("commit", 0, cycle=5)
        out = render_timeline(tracer, ncores=0, width=10)
        assert "core 0" in out


class TestFigure2Timelines:
    def test_all_systems_rendered(self):
        timelines = {
            system: figure2_timeline(system, 0.5)
            for system in FIGURE2_SYSTEMS
        }
        assert set(timelines) == {
            "retcon", "datm", "eager-abort", "eager-stall", "lazy"
        }
        for system, timeline in timelines.items():
            assert "core 0" in timeline, system

    def test_machine_stamps_cycles_automatically(self):
        timeline = figure2_timeline("retcon", 1.0)
        # RETCON's lane must contain repairs or at most one abort.
        assert "R" in timeline or timeline.count("A") <= 1
