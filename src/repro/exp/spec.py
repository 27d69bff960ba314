"""Declarative experiment specifications.

A :class:`Point` names one simulation — (workload, system, ncores,
seed, scale, config).  Every figure/table/sweep in the evaluation is a
list of points plus a formatter; the engine (:mod:`repro.exp.engine`)
executes point lists and the cache (:mod:`repro.exp.cache`) memoizes
the per-point results.

Points hash stably: :func:`point_key` derives a content address from
the full parameter set plus ``repro.__version__``, so any change to a
parameter (or to the simulator version) is a cache miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

from repro.sim.config import MachineConfig

#: short label names for the swept machine knobs: a point whose config
#: has read_set_entries=8 renders as "rs=8"; any other overridden
#: MachineConfig field is labelled by its full name
_SHORT = {
    "retry_budget": "rb",
    "read_set_entries": "rs",
    "write_set_entries": "ws",
    "ivb_entries": "ivb",
    "constraint_entries": "cb",
    "ssb_entries": "ssb",
}


@dataclass(frozen=True)
class Point:
    """One (workload, system, ncores, seed, scale, config) simulation."""

    workload: str
    system: str
    ncores: int = 32
    seed: int = 1
    scale: float = 1.0
    #: every machine override (retry budget, structure capacities,
    #: latencies, ...) is spelled here and only here: None means
    #: ``MachineConfig()`` defaults at this core count.  The resolved
    #: config is cache-key material, so a swept knob is a grid of
    #: distinct points.
    config: Optional[MachineConfig] = None
    #: attach the correctness oracle + golden-run differ to the run
    check: bool = False
    #: observability request: "" (none) or "trace" (record an event
    #: stream + metrics into the result's ``trace``).  Part of the
    #: cache key — a traced run and an untraced run are different
    #: points, so a warm untraced cache can never satisfy a trace
    #: request with an empty trace.
    obs: str = ""

    def resolved_config(self) -> MachineConfig:
        """The machine configuration this point actually runs with."""
        return (self.config or MachineConfig()).with_cores(self.ncores)

    def baseline_key(self) -> tuple:
        """Points with equal keys share one generated workload and one
        sequential baseline (everything except the TM system)."""
        return (
            self.workload,
            self.ncores,
            self.seed,
            self.scale,
            self.resolved_config(),
        )

    def spec_dict(self) -> dict:
        """JSON-safe description of the point (for hashing/storage)."""
        return {
            "workload": self.workload,
            "system": self.system,
            "ncores": self.ncores,
            "seed": self.seed,
            "scale": self.scale,
            "config": asdict(self.resolved_config()),
            # part of the cache key: a checked run carries oracle/golden
            # fields an unchecked run lacks
            "check": self.check,
            "obs": self.obs,
        }

    def label(self) -> str:
        extras = ""
        if self.check:
            extras += " +check"
        if self.obs:
            extras += f" +{self.obs}"
        # Name exactly the machine fields that differ from the
        # defaults: "rb=2 rs=4", None (no bound) shown as "unlimited".
        default = asdict(MachineConfig().with_cores(self.ncores))
        for name, value in asdict(self.resolved_config()).items():
            if value != default[name]:
                shown = "unlimited" if value is None else value
                extras += f" {_SHORT.get(name, name)}={shown}"
        return (
            f"{self.workload}/{self.system} ncores={self.ncores} "
            f"seed={self.seed} scale={self.scale}{extras}"
        )


def point_key(point: Point, version: str | None = None) -> str:
    """Stable content address for *point* under simulator *version*.

    Any change to a key field (workload, system, ncores, seed, scale,
    any config parameter) or to ``repro.__version__`` changes the key,
    which is how cache invalidation works — there is no mtime logic.
    """
    if version is None:
        from repro import __version__ as version
    payload = {"spec": point.spec_dict(), "version": version}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def smoke_spec(
    systems: tuple[str, ...] = ("eager", "lazy-vb", "retcon"),
) -> list[Point]:
    """The tiny grid used by ``python -m repro sweep --smoke`` and CI.

    Three representative workloads (a repairable one, an unrepairable
    one, and a phase-barrier one) at four cores, seed 1 and scale 0.1,
    across the three headline systems — or any ``systems`` override
    (CI's hybrid smoke runs it on ``hybrid-retcon`` alone).
    """
    return [
        Point(workload, system, ncores=4, seed=1, scale=0.1)
        for workload in ("python_opt", "genome-sz", "kmeans")
        for system in systems
    ]
