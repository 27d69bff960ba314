"""The Table 2 workload registry."""

from __future__ import annotations

from repro.fuzz.workload import fuzz_workloads
from repro.workloads.base import Workload
from repro.workloads.bayes import BayesWorkload
from repro.workloads.figure2 import Figure2Workload
from repro.workloads.genome import GenomeWorkload
from repro.workloads.intruder import IntruderWorkload
from repro.workloads.kmeans import KmeansWorkload
from repro.workloads.labyrinth import LabyrinthWorkload
from repro.workloads.python_interp import PythonWorkload
from repro.workloads.service import (
    CheckoutWorkload,
    FeedFanoutWorkload,
    RateLimiterWorkload,
    SessionStoreWorkload,
)
from repro.workloads.ssca2 import Ssca2Workload
from repro.workloads.vacation import VacationWorkload
from repro.workloads.yada import YadaWorkload


def _build_registry() -> dict[str, Workload]:
    workloads = [
        BayesWorkload(),
        GenomeWorkload(resizable=False),
        GenomeWorkload(resizable=True),
        IntruderWorkload(optimized=False, resizable=False),
        IntruderWorkload(optimized=True, resizable=False),
        IntruderWorkload(optimized=True, resizable=True),
        KmeansWorkload(),
        LabyrinthWorkload(),
        Ssca2Workload(),
        VacationWorkload(optimized=False, resizable=False),
        VacationWorkload(optimized=True, resizable=False),
        VacationWorkload(optimized=True, resizable=True),
        YadaWorkload(),
        PythonWorkload(optimized=False),
        PythonWorkload(optimized=True),
    ]
    # Figure 2's counter scenario, the service suite and the fuzz
    # profiles ride along so they flow through the engine/CLI like any
    # workload; all are deliberately NOT part of ALL_VARIANTS (figures
    # and tables are Table 2 only — the service suite has its own
    # sweep, 'repro figure service').
    workloads.extend(
        [
            Figure2Workload(),
            SessionStoreWorkload(),
            RateLimiterWorkload(),
            FeedFanoutWorkload(),
            CheckoutWorkload(),
        ]
    )
    workloads.extend(fuzz_workloads())
    return {w.spec.name: w for w in workloads}


WORKLOADS: dict[str, Workload] = _build_registry()
"""All Table 2 workload variants plus the fuzz profiles, keyed by name."""

#: the 8 base workloads of Figure 1
FIGURE1_WORKLOADS = (
    "genome",
    "intruder",
    "kmeans",
    "labyrinth",
    "ssca2",
    "vacation",
    "yada",
    "python",
)

#: the 14 variants of Figures 3, 4, 9, and 10 (paper order).
#: ``bayes`` is registered but — as in the paper (§3) — excluded from
#: the figures due to extreme runtime variability; Table 3 includes it
#: via TABLE3_WORKLOADS.
ALL_VARIANTS = (
    "genome",
    "genome-sz",
    "intruder",
    "intruder_opt",
    "intruder_opt-sz",
    "kmeans",
    "labyrinth",
    "ssca2",
    "vacation",
    "vacation_opt",
    "vacation_opt-sz",
    "yada",
    "python",
    "python_opt",
)


#: Table 3's rows: bayes first (as in the paper), then the variants
TABLE3_WORKLOADS = ("bayes",) + ALL_VARIANTS


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
