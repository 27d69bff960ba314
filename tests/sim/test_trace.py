"""Event tracing."""

from repro.sim.config import MachineConfig
from repro.obs.events import EventStream
from tests.conftest import counter_increment_txn, run_counter_machine

from repro.mem.memory import MainMemory
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript


def run_traced(system: str, ncores=2, txns=3):
    memory = MainMemory()
    addr = 4096
    memory.write(addr, 0)
    scripts = []
    for _ in range(ncores):
        script = ThreadScript()
        for _ in range(txns):
            script.add_txn(counter_increment_txn(addr, increments=2,
                                                 busy=3))
        scripts.append(script)
    machine = Machine(
        MachineConfig().with_cores(ncores), system, scripts, memory
    )
    tracer = EventStream()
    machine.system.tracer = tracer
    machine.run()
    return tracer


class TestEventStreamTracing:
    def test_begin_commit_pairing(self):
        tracer = run_traced("eager")
        commits = tracer.of_kind("commit")
        begins = tracer.of_kind("begin")
        assert len(commits) == 6
        # every commit has at least one begin; restarts add more
        assert len(begins) >= len(commits)

    def test_abort_events_carry_reason(self):
        tracer = run_traced("eager")
        for event in tracer.of_kind("abort"):
            assert event.detail["reason"] in (
                "conflict", "constraint", "capacity", "dependence"
            )
            assert event.detail["by"] in ("self", "remote")

    def test_retcon_emits_steals_and_repairs(self):
        tracer = run_traced("retcon", txns=6)
        assert tracer.of_kind("repair"), "expected repair events"
        assert tracer.of_kind("steal"), "expected steal events"
        repair = tracer.of_kind("repair")[0]
        assert "addr" in repair.detail and "value" in repair.detail

    def test_summary_and_queries(self):
        tracer = run_traced("eager")
        summary = tracer.summary()
        assert summary["commit"] == 6
        assert sum(summary.values()) == len(tracer)
        assert {event.core for event in tracer} == {0, 1}

    def test_limit_drops_excess(self):
        tracer = EventStream(limit=2)
        for i in range(5):
            tracer.emit("begin", 0, n=i)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_drops_accounted_per_kind(self):
        # Regression: drops used to be one scalar, so summary() could
        # report "0 commits" for a run full of dropped commits.
        tracer = EventStream(limit=1)
        tracer.emit("begin", 0)
        tracer.emit("commit", 0)
        tracer.emit("commit", 1)
        tracer.emit("abort", 1, reason="conflict")
        assert tracer.dropped_by_kind == {"commit": 2, "abort": 1}
        summary = tracer.summary()
        assert summary["commit:dropped"] == 2
        assert summary["abort:dropped"] == 1
        assert summary["begin"] == 1

    def test_str_rendering(self):
        tracer = EventStream()
        tracer.emit("steal", 3, block=7, writer=1)
        assert str(tracer.events[0]) == "[core 3] steal block=7 writer=1"

    def test_disabled_by_default(self):
        # No tracer attached: running must work and emit nothing.
        result, counter = run_counter_machine(
            "retcon", ncores=2, txns_per_core=2
        )
        assert counter == 8
