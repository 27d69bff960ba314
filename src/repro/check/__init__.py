"""The correctness-oracle subsystem.

Three pillars (see ``docs/correctness_oracle.md``):

* :mod:`repro.check.oracle` — the replay-based repair oracle: every
  commit of every row is re-executed by a reference interpreter
  against the serial state of the commits before it, the committed
  (for RETCON, repaired) state must match byte for byte, and so must
  the run's final memory.
* :mod:`repro.check.golden` — the golden-run differ: the parallel
  run's final state is checked against a sequential execution of the
  same workload.
* :mod:`repro.check.faults` — the fault injector: seeded, enumerable
  corruptions of the RETCON structures, of any commit plan and of an
  aborting transaction's undo log prove
  the oracle detects the bug classes it claims to.

:mod:`repro.check.matrix` orchestrates all three for ``repro check``.
"""

from repro.check.faults import FAULT_POINTS, FaultInjector, FaultPoint
from repro.check.golden import GoldenDiff, diff_memories, golden_diff
from repro.check.oracle import OracleViolation, RepairOracle
from repro.check.replay import ReplayLimitExceeded, ReplayResult, replay_program

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultPoint",
    "GoldenDiff",
    "OracleViolation",
    "RepairOracle",
    "ReplayLimitExceeded",
    "ReplayResult",
    "diff_memories",
    "golden_diff",
    "replay_program",
]
