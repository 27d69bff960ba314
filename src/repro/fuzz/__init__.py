"""Differential fuzzing: random transactional programs, cross-backend
equivalence checking, and automatic shrinking.

Only the generator layer is imported eagerly — the workload registry
pulls :mod:`repro.fuzz.workload` in at import time, and importing the
executor/campaign layers here would cycle back through
``sim.runner``/``exp``.  Import :mod:`repro.fuzz.diff`,
:mod:`repro.fuzz.shrink`, :mod:`repro.fuzz.corpus` (the append-only
verdict log every campaign resumes from) and :mod:`repro.fuzz.campaign`
directly.
"""

from repro.fuzz.gen import (
    FUZZ_PROFILES,
    FuzzCase,
    GeneratorConfig,
    config_hash,
    generate_case,
)
from repro.fuzz.genes import Layout, assemble_txn

__all__ = [
    "FUZZ_PROFILES",
    "FuzzCase",
    "GeneratorConfig",
    "config_hash",
    "generate_case",
    "Layout",
    "assemble_txn",
]
