"""Software transactional memory: the HyTM slow path.

The STM backend executes transactions against the same simulated
memory and coherence fabric as the hardware backends, but implements
conflict detection in *software*: per-location ownership/version
metadata (orecs) at fixed addresses in simulated memory,
instrumented read/write barriers charged as extra ISA instructions,
lazy versioning in a private write buffer, and commit-time validation.

:mod:`repro.stm.metadata` fixes the metadata region's addresses;
:mod:`repro.stm.backend` holds the barrier costs and implements the
barriers and the commit protocol, both standalone (``stm``) and as the escalation target of
the hybrid family (the ``hybrid-*`` / ``progressive`` rows of
:data:`repro.htm.backends.BACKENDS`).
"""

from repro.stm.backend import STMMixin, STMRetconSystem, STMSystem
from repro.stm.metadata import STM_META_BASE

__all__ = [
    "STMMixin",
    "STMSystem",
    "STMRetconSystem",
    "STM_META_BASE",
]
