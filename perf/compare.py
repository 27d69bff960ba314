"""Compare two outputs of ``run.py -o`` taken on the same host.

    python3 perf/compare.py A.json B.json

A is the base (the parent commit), B the change.  For every (workload,
end-to-end metric) prints both values, the ratio B/A and a verdict
from the metric's bound and the two runs' quartile spreads:

* ``unresolved`` — a run's own spread (q3 - q1 over its median) is
  wider than the bound, unless every sample of B lies on one side of
  every sample of A;
* ``worse`` — B's value is worse than A's by more than the bound;
* ``better`` — B's value is better than A's by more than both runs'
  spreads;
* ``same`` — anything else.

Then lists every ``simstat.*`` count and ``simstat.digest`` that
differs: none may under a change that claims host speed only.  Exits 1
on any ``worse`` or on a higher failed share, 2 when the two runs are
not comparable (seed, seconds, trials, sizes, ``quick`` or schema
differ).
"""

from __future__ import annotations

import json
import sys

#: run settings that must match for medians to be comparable
_SETTINGS = ("schema", "quick", "seed", "seconds", "trials")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge stat *b* against base stat *a* (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    # positive = B is worse, as a share of A's value
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    worst_a = max(sign * x for x in a["samples"])
    best_a = min(sign * x for x in a["samples"])
    worst_b = max(sign * x for x in b["samples"])
    best_b = min(sign * x for x in b["samples"])
    if spread > bound:
        if worst_b < best_a:
            return "better"
        if best_b > worst_a and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread:
        return "better"
    return "same"


def incomparable(a: dict, b: dict) -> list[str]:
    """Why the two runs cannot be compared (empty when they can)."""
    reasons = [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in _SETTINGS
        if a.get(key) != b.get(key)
    ]
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        reasons.append("different workloads")
    else:
        reasons.extend(
            f"{name} sizes: {a['workloads'][name]['sizes']} vs "
            f"{b['workloads'][name]['sizes']}"
            for name in a["workloads"]
            if a["workloads"][name]["sizes"] != b["workloads"][name]["sizes"]
        )
    return reasons


def compare(a: dict, b: dict) -> int:
    """Print the comparison; return the exit code."""
    reasons = incomparable(a, b)
    if reasons:
        print("not comparable: " + "; ".join(reasons))
        return 2
    for side, run in (("A", a), ("B", b)):
        where = run["provenance"]
        print(f"{side}: {where['git_revision']} on {where['cpu_model']} "
              f"x{where['nproc']}")
    if a["provenance"]["cpu_model"] != b["provenance"]["cpu_model"]:
        print("warning: different hosts; only same-host pairs mean anything")

    bad = False
    print(f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'B/A':>7}  verdict")
    for name, base in a["workloads"].items():
        change = b["workloads"][name]
        if "end_to_end" not in base or "end_to_end" not in change:
            continue  # a --trace 1 run has no timed pass to compare
        for metric in a["end_to_end"]:
            stat_a = base["end_to_end"][metric["name"]]
            stat_b = change["end_to_end"][metric["name"]]
            word = verdict(stat_a, stat_b, metric["better"], metric["bound"])
            bad = bad or word == "worse"
            print(
                f"{name:<18} {metric['name']:<24} "
                f"{stat_a['value']:>12.6g} {stat_b['value']:>12.6g} "
                f"{stat_b['value'] / stat_a['value']:>7.3f}  {word} "
                f"(base A={stat_a['value']:.6g} {metric['unit']}, "
                f"bound {metric['bound']:.0%})"
            )
        share_a = base["failed"] / base["attempted"]
        share_b = change["failed"] / change["attempted"]
        if share_b > share_a:
            bad = True
            print(f"{name:<18} failed share rose: {share_a:.4f} -> "
                  f"{share_b:.4f}")

    for name, base in a["workloads"].items():
        change = b["workloads"][name]
        if base["digest"] != change["digest"]:
            print(f"{name}: simstat.digest differs "
                  f"({base['digest'][:12]} vs {change['digest'][:12]})")
        layers_a = base.get("per_layer", {})
        layers_b = change.get("per_layer", {})
        for metric, stat in layers_a.items():
            if not metric.startswith("simstat.") or metric not in layers_b:
                continue
            if stat["value"] != layers_b[metric]["value"]:
                print(f"{name}: {metric} differs ({stat['value']} vs "
                      f"{layers_b[metric]['value']})")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as handle:
            runs.append(json.load(handle))
    return compare(*runs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
