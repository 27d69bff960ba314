"""Capacity-limited TM: knobs, enforcement, attribution, parity.

Covers the bounded-structure subsystem end to end (see
``docs/capacity.md``): the single-sourced buffer defaults, the public
buffer accessors, read/write-set enforcement with OneTM-style
serialization on pure HTM and STM escalation on hybrids, SSB-overflow
attribution, the capacity views, the Point-level capacity overrides
(cache-key material), and bounded-vs-unlimited parity.
"""

import re
from pathlib import Path

import pytest

from repro.core.buffers import (
    DEFAULT_IVB_ENTRIES,
    DEFAULT_SSB_ENTRIES,
    InitialValueBuffer,
    SymbolicStoreBuffer,
)
from repro.core.constraints import (
    DEFAULT_CONSTRAINT_ENTRIES,
    ConstraintBuffer,
)
from repro.exp.spec import Point, point_key
from repro.obs.events import EventStream, TraceEvent
from repro.obs.views import capacity_attribution, capacity_breakdown
from repro.sim.config import MachineConfig
from repro.sim.runner import run_workload

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: tiny grid shared by the enforcement tests (run_workload always
#: evaluates the workload's final-state invariants, so invariants_ok
#: is load-bearing)
RUN = dict(ncores=4, seed=1, scale=0.05)


def bounded(**overrides) -> MachineConfig:
    return MachineConfig(**overrides)


# ----------------------------------------------------------------------
# Satellite regression: buffers expose a public API and nobody reaches
# into their private state from outside buffers.py
# ----------------------------------------------------------------------
class TestBufferEncapsulation:
    def test_no_private_dict_reachins_outside_buffers(self):
        pattern = re.compile(r"\b(?:ivb|ssb)\s*\.\s*_")
        offenders = []
        for path in SRC.rglob("*.py"):
            if path.name == "buffers.py":
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), 1
            ):
                if pattern.search(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert not offenders, (
            "private buffer state reached from outside buffers.py:\n"
            + "\n".join(offenders)
        )

    def test_legacy_private_entry_dicts_are_gone(self):
        assert not hasattr(InitialValueBuffer(), "_entries")
        assert not hasattr(SymbolicStoreBuffer(), "_entries")

    def test_public_views_track_mutations(self):
        ivb = InitialValueBuffer(capacity=2)
        ivb.allocate(3, b"\x00" * 64)
        assert set(ivb.entries_by_block) == {3}
        ivb.clear()
        assert not ivb.entries_by_block

        ssb = SymbolicStoreBuffer(capacity=4)
        ssb.put(0x100, 4, 7, None)
        assert set(ssb.entries_by_addr) == {0x100}
        ssb.remove(0x100)
        assert not ssb.entries_by_addr


# ----------------------------------------------------------------------
# Satellite regression: one source of truth for the buffer defaults
# ----------------------------------------------------------------------
class TestSingleSourcedDefaults:
    def test_config_defaults_equal_buffer_constants(self):
        config = MachineConfig()
        assert config.ivb_entries == DEFAULT_IVB_ENTRIES
        assert config.ssb_entries == DEFAULT_SSB_ENTRIES
        assert config.constraint_entries == DEFAULT_CONSTRAINT_ENTRIES
        assert InitialValueBuffer().capacity == DEFAULT_IVB_ENTRIES
        assert SymbolicStoreBuffer().capacity == DEFAULT_SSB_ENTRIES
        assert ConstraintBuffer().capacity == DEFAULT_CONSTRAINT_ENTRIES

    def test_config_override_reaches_every_engine(self):
        from repro.coherence.directory import CoherenceFabric
        from repro.htm.backends import build_system
        from repro.mem.memory import MainMemory
        from repro.sim.stats import MachineStats

        config = MachineConfig(
            ncores=3, ivb_entries=4, constraint_entries=5, ssb_entries=6
        )
        system = build_system(
            "retcon", config, MainMemory(),
            CoherenceFabric(config, 3), MachineStats(3),
        )
        for core in range(3):
            engine = system.engine(core)
            assert engine.ivb.capacity == 4
            assert engine.constraints.capacity == 5
            assert engine.ssb.capacity == 6


# ----------------------------------------------------------------------
# Tentpole: read/write-set enforcement across the backend families
# ----------------------------------------------------------------------
class TestSetEnforcement:
    @pytest.mark.parametrize("system", ["eager", "retcon", "lazy"])
    def test_bounded_htm_serializes_and_completes(self, system):
        config = bounded(read_set_entries=1, write_set_entries=1)
        result = run_workload(
            "python_opt", system, config=config, **RUN
        )
        assert result.invariants_ok
        assert result.aborts_by_reason.get("capacity", 0) > 0

    def test_unbounded_run_has_no_capacity_set_aborts(self):
        result = run_workload("python_opt", "eager", **RUN)
        assert result.aborts_by_reason.get("capacity", 0) == 0

    def test_hybrid_escalates_to_stm_on_capacity(self):
        config = bounded(read_set_entries=1, write_set_entries=1)
        result = run_workload(
            "python_opt", "hybrid-retcon", config=config, **RUN
        )
        assert result.invariants_ok
        assert result.aborts_by_reason.get("capacity", 0) > 0
        assert result.stm.get("stm_commits", 0) > 0

    def test_capacity_aborts_are_structure_attributed(self):
        tracer = EventStream()
        config = bounded(read_set_entries=1, write_set_entries=1)
        result = run_workload(
            "python_opt", "eager", config=config, tracer=tracer, **RUN
        )
        assert result.invariants_ok
        caps = [
            e for e in tracer
            if e.kind == "abort"
            and e.detail.get("reason") == "capacity"
        ]
        assert caps
        for event in caps:
            assert event.detail.get("structure") in (
                "read_set", "write_set"
            )

    def test_ssb_bound_aborts_carry_ssb_structure(self):
        tracer = EventStream()
        config = bounded(ssb_entries=1)
        result = run_workload(
            "python_opt", "retcon", config=config, tracer=tracer, **RUN
        )
        assert result.invariants_ok
        structures = {
            e.detail.get("structure")
            for e in tracer
            if e.kind == "abort"
            and e.detail.get("reason") == "capacity"
        }
        assert "ssb" in structures

    def test_occupancy_histograms_observed(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        config = bounded(read_set_entries=2, write_set_entries=2)
        run_workload(
            "python_opt", "retcon", config=config, metrics=metrics,
            **RUN,
        )
        for name in (
            "txn.read_set_size",
            "txn.write_set_size",
            "txn.ivb_occupancy",
            "txn.ssb_occupancy",
        ):
            hist = metrics.get(name)
            assert hist is not None, f"missing {name}"
            assert hist.count > 0, f"{name}: no observations"


class TestLostInvalidationUnderWriteSetBound:
    """A write that overflows the write set has already invalidated the
    remote copies; the victims' RETCON engines must hear about it."""

    @pytest.mark.parametrize(
        "system,seed",
        [("retcon", 3), ("retcon", 6), ("hybrid-retcon", 5)],
    )
    def test_genome_keeps_every_insert(self, system, seed):
        result = run_workload(
            "genome-sz", system, ncores=16, seed=seed, scale=0.1,
            config=bounded(write_set_entries=2),
        )
        assert result.invariants_ok, [
            inv.detail for inv in result.failed_invariants()
        ]

    def test_capacity_aborted_writer_still_reports_the_steal(self):
        from repro.coherence.directory import CoherenceFabric
        from repro.htm.backends import build_system
        from repro.htm.events import TxnAborted
        from repro.mem.memory import MainMemory
        from repro.sim.stats import MachineStats

        counter, other = 0x4000, 0x8000
        config = bounded(ncores=3, write_set_entries=1)
        memory = MainMemory()
        memory.write(counter, 10)
        system = build_system(
            "retcon", config, memory, CoherenceFabric(config, 3),
            MachineStats(3),
        )
        # Core 1 value-tracks the counter block and increments it
        # symbolically.
        engine = system.engine(1)
        engine.predictor.observe_conflict(counter // 64)
        system.begin(1)
        loaded = system.load(1, counter, 8)
        engine.alu("add", 1, loaded.sym, None, loaded.value, 1)
        system.store(1, counter, 8, 11, sym=engine.reg_sym(1))
        # Core 0's second written block overflows its write set: the
        # access invalidated core 1's copy, then aborted.
        system.begin(0)
        system.store(0, other, 8, 1)
        with pytest.raises(TxnAborted):
            system.store(0, counter, 8, 99)
        assert memory.read(counter) == 10  # rolled back
        # Core 2 really changes the counter.  Core 1 is no longer a
        # sharer, so this write cannot be what tells it.
        system.store(2, counter, 8, 50)
        system.commit(1)
        assert memory.read(counter) == 51  # repaired, not a stale 11


# ----------------------------------------------------------------------
# Views: attribution table over the event stream
# ----------------------------------------------------------------------
class TestCapacityViews:
    EVENTS = [
        TraceEvent("abort", 0, {"reason": "capacity",
                                "structure": "read_set",
                                "label": "bytecode-block", "block": 7}),
        TraceEvent("abort", 1, {"reason": "capacity",
                                "structure": "read_set",
                                "label": "bytecode-block", "block": 9}),
        TraceEvent("abort", 2, {"reason": "capacity",
                                "structure": "ssb",
                                "label": "teardown", "block": 3}),
        TraceEvent("abort", 0, {"reason": "conflict",
                                "label": "bytecode-block", "block": 7}),
        TraceEvent("commit", 0, {}),
    ]

    def test_attribution_keys_and_counts(self):
        counts = capacity_attribution(self.EVENTS)
        assert counts == {
            ("read_set", "bytecode-block"): 2,
            ("ssb", "teardown"): 1,
        }

    def test_breakdown_table(self):
        table = capacity_breakdown(self.EVENTS)
        lines = table.splitlines()
        assert "structure" in lines[0]
        assert any(
            "read_set" in line and "bytecode-block" in line
            for line in lines
        )
        assert lines[-1].strip().startswith("3")
        assert lines[-1].strip().endswith("total")

    def test_breakdown_empty(self):
        assert capacity_breakdown([]) == "(no capacity aborts)"


# ----------------------------------------------------------------------
# Point-level capacity overrides (spelled Point(config=...)):
# resolution, labels, cache keys
# ----------------------------------------------------------------------
#: the five capacity knobs of MachineConfig
CAPACITY_FIELDS = (
    "read_set_entries",
    "write_set_entries",
    "ivb_entries",
    "constraint_entries",
    "ssb_entries",
)


def capped(**capacities) -> Point:
    return Point("python_opt", "retcon", config=bounded(**capacities))


class TestPointCapacityFields:
    def test_int_override_folds_into_config(self):
        config = capped(read_set_entries=4, ssb_entries=8).resolved_config()
        assert config.read_set_entries == 4
        assert config.ssb_entries == 8
        # untouched fields keep the config defaults
        assert config.ivb_entries == DEFAULT_IVB_ENTRIES
        # ...and the point's core count, not the override's, wins
        assert config.ncores == 32

    def test_unlimited_unbinds(self):
        point = capped(ivb_entries=None)
        assert point.resolved_config().ivb_entries is None
        assert "ivb=unlimited" in point.label()

    def test_every_capacity_field_is_cache_key_material(self):
        base = Point("python_opt", "retcon")
        for name in CAPACITY_FIELDS:
            assert point_key(capped(**{name: 4})) != point_key(base), name

    def test_unlimited_sets_hash_like_the_seed_default(self):
        # read/write sets default to unbounded, so an explicit
        # unlimited (None) must resolve to the identical config and
        # cache key — the bit-identity guarantee for unbounded runs.
        base = Point("python_opt", "retcon")
        explicit = capped(read_set_entries=None, write_set_entries=None)
        assert explicit.resolved_config() == base.resolved_config()
        assert point_key(explicit) == point_key(base)
        assert explicit.baseline_key() == base.baseline_key()

    def test_label_mentions_bounds(self):
        label = capped(read_set_entries=4, write_set_entries=None).label()
        assert "rs=4" in label
        # the default (unbounded) write set is not an override
        assert "ws=" not in label


# ----------------------------------------------------------------------
# Bounded-vs-unlimited parity: "unlimited" runs match the seed
# ----------------------------------------------------------------------
class TestParity:
    def test_unlimited_sets_run_identically(self):
        default = run_workload("python_opt", "retcon", **RUN)
        config = MachineConfig(
            read_set_entries=None, write_set_entries=None
        )
        explicit = run_workload(
            "python_opt", "retcon", config=config, **RUN
        )
        assert explicit.cycles == default.cycles
        assert explicit.commits == default.commits
        assert explicit.aborts == default.aborts
        assert explicit.aborts_by_reason == default.aborts_by_reason
