"""The one table of TM systems: a backend is a row.

Everything the rest of the repo may know about a backend — that it
exists and how it is composed — is written here once: no caller
branches on a row.  ``repro.SYSTEMS``, the ``repro list`` line and the
CLI's name validation are all derived from :data:`BACKENDS`.

Adding a backend = one row here.  Write a class only if the system has
behaviour no existing class has (a new ``load``/``store``/``commit``
path); a new setting of an existing axis — contention policy, value
tracking, forwarding cooldown, fallback flavour — is just ``kwargs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.directory import CoherenceFabric
from repro.htm.forwarding import DATMSystem, RetconForwardingSystem
from repro.htm.lazy import LazyTMSystem
from repro.htm.system import BaseTMSystem, RetconTMSystem
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats
from repro.stm.backend import STMRetconSystem, STMSystem


@dataclass(frozen=True)
class Backend:
    """One TM system: a class and its constructor settings."""

    cls: type
    kwargs: dict = field(default_factory=dict)


BACKENDS: dict[str, Backend] = {
    "eager": Backend(BaseTMSystem),
    "eager-abort": Backend(BaseTMSystem, {"policy": "requester-aborts"}),
    "eager-stall": Backend(BaseTMSystem, {"policy": "requester-stalls"}),
    "lazy": Backend(LazyTMSystem),
    "lazy-vb": Backend(RetconTMSystem, {"track_all": True}),
    "datm": Backend(DATMSystem),
    "retcon": Backend(RetconTMSystem),
    "retcon-fwd": Backend(RetconForwardingSystem, {"cooldown": 50}),
    "stm": Backend(STMSystem),
    "hybrid-retcon": Backend(STMRetconSystem, {"hybrid": True}),
    "hybrid-eager": Backend(STMSystem, {"hybrid": True}),
    "hybrid-lazy-vb": Backend(
        STMRetconSystem, {"hybrid": True, "track_all": True}
    ),
    "progressive": Backend(
        STMRetconSystem, {"hybrid": True, "pessimistic_fallback": True}
    ),
}


def build_system(
    name: str,
    config: MachineConfig,
    memory: MainMemory,
    fabric: CoherenceFabric,
    stats: MachineStats,
) -> BaseTMSystem:
    """Construct the TM system of row *name*."""
    row = BACKENDS.get(name)
    if row is None:
        raise ValueError(
            f"unknown TM system: {name!r} (known: {', '.join(BACKENDS)})"
        )
    system = row.cls(config, memory, fabric, stats, **row.kwargs)
    system.name = name
    return system
