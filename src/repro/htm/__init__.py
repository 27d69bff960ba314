"""Hardware transactional memory systems.

The baseline (paper §2) detects conflicts eagerly through the
coherence protocol, resolves them with timestamp-based "oldest
transaction wins" contention management, and uses eager version
management with zero-cycle rollback.  Variants implemented here:

* ``eager`` — the baseline above.
* ``eager-stall`` — the requester always stalls on a conflict (Fig 2d).
* ``lazy`` — commit-time conflict detection, committer wins (Fig 2e).
* ``lazy-vb`` — the paper's value-based decoupling variant: blocks may
  be stolen, but every read value must be byte-identical at commit.
* ``datm`` — dependence-aware TM with speculative value forwarding and
  abort on cyclic dependences (Fig 2b).
* ``retcon`` — symbolic tracking and commit-time repair (Fig 2a).

:data:`repro.htm.backends.BACKENDS` is the one table of every system
that can be simulated (these, ``retcon-fwd``, and the STM/hybrid
family of :mod:`repro.stm`), and ``repro.htm.backends.build_system``
the one constructor.  Adding a backend = one row there (+ a class
only if it has new behaviour).  The table is not re-exported here
because it imports :mod:`repro.stm`, which imports this package.
"""

from repro.htm.contention import POLICIES, Action
from repro.htm.events import StallRetry, TxnAborted
from repro.htm.system import BaseTMSystem, RetconTMSystem
from repro.htm.versioning import UndoLog

__all__ = [
    "BaseTMSystem",
    "RetconTMSystem",
    "UndoLog",
    "Action",
    "POLICIES",
    "StallRetry",
    "TxnAborted",
]
