"""One benchmark child: set up one workload, run its units, report.

Started by ``run.py`` as ``python3 perf/child.py '<job json>'`` with
the job ``{"workload", "seed", "seconds", "trace", "quick"}``.  Writes
two JSON lines to stdout:

1. when ready — imports done, inputs generated, one untimed warm-up
   unit run (cold decode/compile lands here); the parent stamps the
   arrival of this line as ``setup_s``;
2. at exit — the timed units and, for a traced job, the per-layer
   profile of one more unit.

``gc.collect()`` runs before each unit, outside the timed region.
"""

from __future__ import annotations

import json
import sys
import time

_IMPORT_START = time.perf_counter()

import cProfile  # noqa: E402
import gc  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START


def _failures(unit: dict, reference: dict) -> list[dict]:
    """Items of *unit* that failed or drifted from the warm-up unit."""
    expected = {item["name"]: item for item in reference["items"]}
    out = []
    for item in unit["items"]:
        detail = None
        if not item["ok"]:
            detail = item["detail"] or "failed"
        else:
            twin = expected.get(item["name"])
            if twin is None or (twin["sim"], twin["record"]) != (
                item["sim"], item["record"]
            ):
                detail = "simulated outcome differs from the warm-up unit"
        if detail is not None:
            out.append({"item": item["name"], "detail": detail})
    return out


def _checked(unit: dict, reference: dict) -> dict:
    """What the parent needs to check one unit's outputs."""
    return {
        "digest": digest(unit["items"]),
        "attempted": len(unit["items"]),
        "failures": _failures(unit, reference),
    }


def _timed(workload, reference: dict) -> dict:
    gc.collect()
    cpu = time.process_time()
    start = time.perf_counter()
    unit = workload.unit()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "core_cycles": sum(i["sim"]["core_cycles"] for i in unit["items"]),
        "extras": unit["extras"],
        **_checked(unit, reference),
    }


def _traced(workload, reference: dict) -> dict:
    gc.collect()
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    unit = workload.unit()
    profile.disable()
    wall_s = time.perf_counter() - start
    profile.create_stats()
    return {
        "wall_s": wall_s,
        "layers": layers.bucket(profile.stats),
        **_checked(unit, reference),
    }


def main(job: dict) -> None:
    workload = WORKLOADS[job["workload"]](job["seed"], job["quick"])
    reference = workload.warmup()
    print(json.dumps({
        "ready": True, "import_s": IMPORT_S, "sizes": workload.sizes,
    }), flush=True)

    units = []
    deadline = time.perf_counter() + job["seconds"]
    while not units or time.perf_counter() < deadline:
        units.append(_timed(workload, reference))

    sim = dict.fromkeys(reference["items"][0]["sim"], 0)
    for item in reference["items"]:
        for name, value in item["sim"].items():
            sim[name] += value
    result = {
        "warmup": _checked(reference, reference),
        "units": units,
        "sim": sim,
    }
    if job["trace"]:
        result["traced"] = _traced(workload, reference)
        result["informational"] = workload.informational()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
