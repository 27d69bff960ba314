"""Event-driven vs lockstep scheduler: observational identity.

The event scheduler's whole contract is that bursting a core while it
remains the (cycle, cid) heap minimum replays exactly the step
sequence the lockstep scheduler would have produced — same makespan,
same per-core cycle attribution, same commit/abort/stall counts, and
(for RETCON-family systems) same Table 3 aggregates.  These tests pin
that contract on contended multi-core runs of every system the smoke
grid exercises.
"""

from dataclasses import asdict

import pytest

from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript
from tests.conftest import counter_increment_txn

SYSTEMS = ["eager", "eager-abort", "eager-stall", "lazy-vb", "retcon"]


def _contended_scripts(ncores: int, txns: int) -> list[ThreadScript]:
    """Every core hammers one shared counter: stalls, aborts, steals."""
    scripts = []
    for cid in range(ncores):
        script = ThreadScript()
        script.add_work(1 + cid)  # stagger starts to vary the interleave
        for _ in range(txns):
            script.add_txn(counter_increment_txn(0x1000))
            script.add_work(2)
        script.add_barrier()
        script.add_txn(counter_increment_txn(0x1000 + 64))
        scripts.append(script)
    return scripts


def _observe(system: str, scheduler: str):
    machine = Machine(
        MachineConfig().with_cores(4),
        system,
        _contended_scripts(4, txns=6),
        MainMemory(),
        scheduler=scheduler,
    )
    result = machine.run()
    stats = machine.stats
    return (
        result.cycles,
        [asdict(core) for core in stats.cores],
        {
            name: (agg.count, agg.total, agg.maximum)
            for name, agg in stats._retcon.items()
        },
        stats._txn_cycles,
        stats._txn_commit_cycles,
        result.memory.read(0x1000, 8),
    )


class TestSchedulerIdentity:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_event_matches_lockstep(self, system):
        assert _observe(system, "event") == _observe(system, "lockstep")
