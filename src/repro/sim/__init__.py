"""Multicore machine: configuration, cores, scheduler, statistics."""

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.stats import CoreStats, MachineStats

__all__ = [
    "MachineConfig",
    "Machine",
    "RunResult",
    "MachineStats",
    "CoreStats",
]
