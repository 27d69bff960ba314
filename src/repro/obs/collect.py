"""End-of-run metric collection: counts are collected, not observed.

The simulator keeps every count in one record,
:class:`~repro.sim.stats.CoreStats` (commits, aborts by reason and by
structure, conflicts, steals, repairs, forwards, STM work), plus the
coherence fabric's spill and overflow counters and per-cache eviction
totals.  This module copies them into the registry exactly once, when
the run finishes; no simulator site bumps a counter.  Only
distributions (histograms) are observed live, because a distribution
cannot be rebuilt from a total.  So the registry *reads* the
boundary-flushed structures instead of shadowing them, and an attached
run counts exactly what an unattached one does.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

#: counter name -> the int :class:`~repro.sim.stats.CoreStats` field it
#: totals; each is written even when zero
_TOTALS = (
    ("htm.conflicts", "conflict_events"),
    ("retcon.steals", "steals"),
    ("retcon.repairs", "repairs"),
    ("fwd.forwards", "forwards"),
)


def collect_machine(
    registry: MetricsRegistry, machine, makespan: int
) -> None:
    """Flush *machine*'s end-of-run totals into *registry*.

    Called by :meth:`repro.sim.machine.Machine.run` just before it
    returns, when a registry is attached.
    """
    stats = machine.stats
    registry.set("sim.makespan_cycles", makespan)
    registry.set("sim.ncores", machine.config.ncores)

    # Counters.  Labelled ones exist for the keys that occurred;
    # repaired commits and the STM counters only when there were any.
    commits, aborts = stats.total_commits(), stats.total_aborts()
    registry.inc("txn.begins", commits + aborts)
    registry.inc("txn.commits", commits)
    for reason, count in stats.aborts_by_reason().items():
        registry.inc("txn.aborts", count, reason=reason)
    for structure, count in stats.merged("capacity_aborts").items():
        registry.inc("txn.capacity_aborts", count, structure=structure)
    for name, field in _TOTALS:
        registry.inc(name, stats.total(field))
    if repaired := stats.total("repaired_commits"):
        registry.inc("txn.repaired_commits", repaired)
    if stats.did_stm_work():
        registry.inc("stm.fallbacks", stats.total_stm_fallbacks())
        registry.inc("stm.barrier_instrs", stats.total_barrier_instrs())
        registry.inc("stm.subscription_aborts", stats.subscription_aborts())

    for cid in range(machine.config.ncores):
        core = stats.core(cid)
        # Per-core flush: CoreStats is the core-local accumulator
        # (cycles written only at txn boundaries); this is its
        # registry flush.
        registry.set("core.busy_cycles", core.busy, core=cid)
        registry.set("core.conflict_cycles", core.conflict, core=cid)
        registry.set("core.commits", core.commits, core=cid)
        registry.set("core.aborts", core.total_aborts, core=cid)
        registry.set("core.stall_events", core.stall_events, core=cid)
    for bucket in ("busy", "conflict", "barrier", "other"):
        registry.set(f"cycles.{bucket}", stats.total(bucket))

    fabric = machine.fabric
    registry.set("cache.perm_spills", fabric.perm_cache_spills)
    registry.set("cache.overflows", fabric.overflow_events)
    registry.set(
        "cache.l1_evictions",
        sum(c.l1.evictions for c in fabric.cores),
    )
    registry.set(
        "cache.l2_evictions",
        sum(c.l2.evictions for c in fabric.cores),
    )
    registry.set(
        "cache.perm_evictions",
        sum(c.perm.evictions for c in fabric.cores),
    )
