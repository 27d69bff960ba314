"""The TM operation contract, on every backend row.

``store`` answers with its latency as a plain ``int``, and ``commit``
with a ``(latency, plan)`` pair whose plan is the
:class:`~repro.core.engine.CommitPlan` the commit drained.
"""

import pytest

from repro.core.engine import CommitPlan
from repro.htm.backends import BACKENDS
from repro.mem.memory import MainMemory
from repro.sim.config import small_test_config
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript
from tests.conftest import counter_increment_txn

ADDR = 4096


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_store_returns_int_and_commit_returns_latency_and_plan(backend):
    memory = MainMemory()
    scripts = []
    for _ in range(2):
        script = ThreadScript()
        for _ in range(3):
            script.add_txn(counter_increment_txn(ADDR, increments=2, busy=2))
        scripts.append(script)
    machine = Machine(small_test_config(2), backend, scripts, memory)
    system = machine.system
    stores, commits = [], []
    store, commit = system.store, system.commit

    def spy_store(*args, **kwargs):
        latency = store(*args, **kwargs)
        stores.append((system.in_txn(args[0]), latency))
        return latency

    def spy_commit(core):
        answer = commit(core)
        commits.append(answer)
        return answer

    system.store = spy_store
    system.commit = spy_commit
    machine.run(max_cycles=5_000_000)
    spy_store(0, ADDR + 8, 8, 5)  # outside any transaction

    assert memory.read(ADDR) == 12
    assert {in_txn for in_txn, _latency in stores} == {True, False}
    for _in_txn, latency in stores:
        assert type(latency) is int and latency >= 0
    assert len(commits) == 6
    for answer in commits:
        assert type(answer) is tuple and len(answer) == 2
        latency, plan = answer
        assert type(latency) is int and latency >= 0
        assert type(plan) is CommitPlan
