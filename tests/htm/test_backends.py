"""The backend table: every row builds, runs, and is what every
derived list says it is."""

import itertools
from dataclasses import asdict, fields

import pytest

import repro
from repro.coherence.directory import CoherenceFabric
from repro.htm import contention
from repro.htm.backends import BACKENDS, Backend, build_system
from repro.isa.program import Assembler
from repro.isa.registers import R1, R2, R3, R5
from repro.mem.memory import MainMemory
from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import small_test_config
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript
from repro.sim.stats import MachineStats
from repro.stm.backend import STMMixin
from tests.conftest import run_counter_machine

ROWS = sorted(BACKENDS)


def build(name, ncores=2):
    config = small_test_config(ncores=ncores)
    return build_system(
        name, config, MainMemory(), CoherenceFabric(config, ncores),
        MachineStats(ncores),
    )


def memory_image(memory):
    return {b: memory.read_block(b) for b in memory.touched_blocks()}


@pytest.mark.parametrize("name", ROWS)
class TestEveryRow:
    def test_builds_and_carries_its_row(self, name):
        row = BACKENDS[name]
        system = build(name)
        assert type(system) is row.cls
        assert system.name == name

    def test_contended_counter_commits_to_the_right_total(self, name):
        result, counter = run_counter_machine(
            name, ncores=3, txns_per_core=4
        )
        assert counter == 24
        assert result.commits == 12

    def test_an_observed_run_is_the_unobserved_run(self, name):
        bare, _ = run_counter_machine(name, ncores=3, txns_per_core=4)
        seen, _ = run_counter_machine(
            name, ncores=3, txns_per_core=4,
            tracer=EventStream(), metrics=MetricsRegistry(),
        )
        assert seen.cycles == bare.cycles
        assert [asdict(core) for core in seen.stats.cores] == [
            asdict(core) for core in bare.stats.cores
        ]
        assert memory_image(seen.memory) == memory_image(bare.memory)

    def test_the_registry_counts_what_the_run_counted(self, name):
        """Each counter equals its trace kind's count, the abort
        counters the stats' reasons, and the ``stm.*`` counters exist
        exactly on the software-TM rows."""
        tracer, metrics = EventStream(), MetricsRegistry()
        result, _ = run_counter_machine(
            name, ncores=3, txns_per_core=4, tracer=tracer, metrics=metrics
        )
        counters = metrics.snapshot("counter")
        kinds = tracer.summary()
        aborts = {
            key[len("txn.aborts{reason="):-1]: value
            for key, value in counters.items()
            if key.startswith("txn.aborts{")
        }
        assert sum(aborts.values()) == kinds.get("abort", 0)
        assert aborts == result.stats.aborts_by_reason()
        for counter, kind in (
            ("txn.begins", "begin"), ("txn.commits", "commit"),
            ("htm.conflicts", "conflict"), ("retcon.steals", "steal"),
            ("retcon.repairs", "repair"), ("fwd.forwards", "forward"),
        ):
            assert counters[counter] == kinds.get(kind, 0), counter
        assert counters.get("stm.fallbacks", 0) == kinds.get("fallback", 0)
        stm = {key for key in counters if key.startswith("stm.")}
        assert stm == (
            {"stm.fallbacks", "stm.barrier_instrs", "stm.subscription_aborts"}
            if issubclass(BACKENDS[name].cls, STMMixin) else set()
        )

    def test_a_checked_run_is_the_unchecked_run(self, name):
        """Every commit of every row is replayed, and checking it
        changes nothing."""
        bare, _ = run_counter_machine(
            name, ncores=3, txns_per_core=4, check=False
        )
        checked, _ = run_counter_machine(
            name, ncores=3, txns_per_core=4, check=True
        )
        assert checked.cycles == bare.cycles
        assert [asdict(core) for core in checked.stats.cores] == [
            asdict(core) for core in bare.stats.cores
        ]
        assert memory_image(checked.memory) == memory_image(bare.memory)
        assert checked.oracle.violations == []
        assert checked.oracle.checked_commits == checked.commits

    def test_mixed_width_stores_match_a_one_core_run(self, name):
        """§4.3 on every row: a 4-byte store of an 8-byte value and
        its reload, an 8-byte store over it and a wide reload, and a
        remote 2-byte rmw landing in the middle of it all — twice, so
        the first round's conflict trains RETCON onto the block."""
        word = 4096
        wide = Assembler()
        wide.load(R1, word, 8).addi(R1, R1, 1)
        wide.store(R1, word + 4, 4).load(R3, word + 4, 4)
        wide.nop(40)
        wide.store(R1, word, 8).load(R2, word, 8)
        narrow = Assembler()
        narrow.load(R5, word + 2, 2).addi(R5, R5, 3).store(R5, word + 2, 2)
        txns = [wide.build(), narrow.build()]

        def run(system, order_per_core):
            scripts = []
            for order in order_per_core:
                scripts.append(ThreadScript())
                for index in order:
                    scripts[-1].add_work(15 * index)
                    scripts[-1].add_txn(txns[index])
            memory = MainMemory()
            memory.write(word, 0x0123_4567_89AB_FFFE)
            machine = Machine(
                small_test_config(ncores=len(scripts)), system, scripts,
                memory,
            )
            machine.run(max_cycles=1_000_000)
            regs = [core.regs.snapshot() for core in machine.cores]
            return memory.read(word), [
                regs[0][R1], regs[0][R2], regs[0][R3], regs[-1][R5]
            ]

        serial_orders = set(itertools.permutations((0, 0, 1, 1)))
        assert run(name, [(0, 0), (1, 1)]) in [
            run("eager", [order]) for order in serial_orders
        ]

    def test_run_result_reports_the_requested_name(self, name):
        result, _ = run_counter_machine(name, ncores=2, txns_per_core=1)
        assert result.system_name == name

    def test_oracle_attaches_iff_the_row_says_so(self, name):
        """No row says otherwise: check=True attaches on every row."""
        config = small_test_config(ncores=2)
        machine = Machine(config, name, [], MainMemory(), check=True)
        assert machine.oracle is not None
        assert machine.system.oracle is machine.oracle


class TestTheTable:
    def test_the_thirteen_systems(self):
        assert tuple(BACKENDS) == (
            "eager", "eager-abort", "eager-stall", "lazy", "lazy-vb",
            "datm", "retcon", "retcon-fwd", "stm", "hybrid-retcon",
            "hybrid-eager", "hybrid-lazy-vb", "progressive",
        )

    def test_the_facts_callers_branch_on(self):
        """None: a row is a class and its settings."""
        assert [f.name for f in fields(Backend)] == ["cls", "kwargs"]

    def test_policy_rows_pick_the_contention_policy(self):
        assert build("eager").policy is contention.timestamp
        assert build("eager-abort").policy is contention.requester_aborts
        assert build("eager-stall").policy is contention.requester_stalls

    def test_row_settings_reach_the_instance(self):
        assert build("datm")._fwd_cooldown_length == 0
        assert build("retcon-fwd")._fwd_cooldown_length == 50
        assert not build("stm").hybrid
        assert build("hybrid-eager").hybrid
        assert not build("hybrid-retcon").pessimistic_fallback
        assert build("progressive").pessimistic_fallback
        for name in ("lazy-vb", "hybrid-lazy-vb"):
            engine = build(name).engine(0)
            assert engine.predictor.always_track
            assert not engine.symbolic_arithmetic
        assert build("retcon").engine(0).symbolic_arithmetic

    def test_unknown_name_names_the_known_ones(self):
        with pytest.raises(ValueError, match="hybrid-lazy-vb"):
            build("bogus")


class TestDerivedLists:
    def test_package_systems(self):
        assert repro.SYSTEMS == tuple(BACKENDS)

    def test_repro_list_prints_the_table(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert (
            "TM systems: " + ", ".join(BACKENDS) + "\n"
        ) in capsys.readouterr().out
