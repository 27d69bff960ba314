"""RETCON: Transactional Repair Without Replay — full reproduction.

This package reproduces the system described in:

    Colin Blundell, Arun Raghavan, Milo M. K. Martin.
    "RETCON: Transactional Repair Without Replay."
    ISCA 2010 (UPenn CIS TR MS-CIS-09-15).

The package is organized as:

* :mod:`repro.isa` — a small RISC-like instruction set that transactions
  are written in.
* :mod:`repro.mem` — flat main memory, allocator, and set-associative
  caches with speculative read/write bits.
* :mod:`repro.coherence` — a directory-based coherence model used for
  conflict detection and latency charging.
* :mod:`repro.htm` — the baseline hardware transactional memory
  (eager conflict detection, timestamp contention management, eager
  version management) plus the lazy / lazy-vb / DATM variants.
* :mod:`repro.core` — RETCON itself: symbolic values, interval
  constraints, the initial value buffer, symbolic store buffer,
  symbolic register file, conflict predictor, and the pre-commit
  repair algorithm.
* :mod:`repro.sim` — the multicore machine: in-order cores, scheduler,
  configuration (Table 1) and statistics (time breakdown, Table 3).
* :mod:`repro.workloads` — models of the paper's workloads (Table 2).
* :mod:`repro.analysis` — regeneration of every figure and table in
  the paper's evaluation.
* :mod:`repro.check` — the correctness oracle: replay-based repair
  validation, golden-run differencing, and fault injection.
* :mod:`repro.stm` — the software TM slow path (orec metadata in
  simulated memory, instrumented barriers, commit-time validation),
  used standalone (``stm``) and as the escalation target of the
  hybrid family.

:data:`repro.htm.backends.BACKENDS` is the one table of TM systems;
:data:`SYSTEMS` is its row names.
"""

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.runner import WorkloadResult, run_sequential, run_workload
from repro.workloads.registry import WORKLOADS, get_workload

# After repro.sim: the table's classes import repro.sim.config, whose
# package imports the Machine, which imports the table.
from repro.htm.backends import BACKENDS  # isort: skip

SYSTEMS = tuple(BACKENDS)
"""Names of the transactional-memory system variants that can be simulated."""

__version__ = "1.7.5"

__all__ = [
    "MachineConfig",
    "Machine",
    "RunResult",
    "WorkloadResult",
    "run_workload",
    "run_sequential",
    "WORKLOADS",
    "get_workload",
    "SYSTEMS",
    "__version__",
]
