"""The experiment engine.

Three layers (see ``docs/experiment_engine.md``):

* :mod:`repro.exp.spec` — :class:`Point`, the declarative,
  content-addressed name of one simulation.
* :mod:`repro.exp.engine` — execution: baseline sharing across
  systems, process-parallel runs (``jobs`` / ``$REPRO_JOBS``), and
  streamed per-point progress.
* :mod:`repro.exp.cache` — a content-addressed on-disk result cache
  keyed by the point spec and ``repro.__version__``.
"""

from repro.exp.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exp.engine import resolve_jobs, run_points, stderr_progress
from repro.exp.spec import Point, point_key, smoke_spec

__all__ = [
    "DEFAULT_CACHE_DIR",
    "Point",
    "ResultCache",
    "point_key",
    "resolve_jobs",
    "run_points",
    "smoke_spec",
    "stderr_progress",
]
