"""Per-layer attribution of one cProfile'd unit, from outside ``src/``.

A profiled function belongs to the layer of the file that defines it;
its ``tottime`` and primitive call count go to that layer, so layer
self times partition the traced unit (shares sum to 1).  Boundary
*edges* use the profile's caller records instead: the cumulative time
and call count of, say, ``tm.load`` are summed over the arcs from the
interpreter (``sim/cpu.py``, ``sim/decode.py``) into any ``load``
defined under ``htm/`` or ``stm/`` — an override calling ``super()``
is an arc from ``stm/`` and is not counted twice.

cProfile charges every Python call and no time inside native code, so
these proportions are shifted against the untraced unit; the traced
run reports the factor as ``host.trace_overhead_x``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

from spec import EDGES, LAYERS

REPRO_ROOT = Path(repro.__file__).resolve().parent

#: packages that are one layer each
_PACKAGE_LAYER = {
    "workloads": "workloads",
    "isa": "isa",
    "htm": "htm.policy",
    "stm": "stm",
    "coherence": "coherence.directory",
    "obs": "obs",
    "check": "check",
    "fuzz": "fuzz",
    "exp": "exp",
    "analysis": "host",
}

#: files named one by one: packages split over several layers, and
#: the exceptions inside one-layer packages
_FILE_LAYER = {
    "__init__.py": "host",
    "__main__.py": "host",
    "cli.py": "host",
    "sim/__init__.py": "sim.machine",
    "sim/machine.py": "sim.machine",
    "sim/script.py": "sim.machine",
    "sim/config.py": "sim.machine",
    "sim/runner.py": "sim.machine",
    "sim/cpu.py": "sim.cpu",
    "sim/stats.py": "sim.stats",
    # split by function: see decode_layer()
    "sim/decode.py": "sim.decode.compile",
    "htm/system.py": "htm.system",
    "mem/__init__.py": "mem.memory",
    "mem/memory.py": "mem.memory",
    "mem/allocator.py": "mem.memory",
    "mem/address.py": "mem.memory",
    "mem/cache.py": "mem.cache",
    "core/__init__.py": "core.sym",
    "core/symvalue.py": "core.sym",
    "core/symexpr.py": "core.sym",
    "core/constraints.py": "core.sym",
    "core/predictor.py": "core.sym",
    "core/engine.py": "core.engine",
    "core/buffers.py": "core.buffers",
}

_INTERPRETER = ("sim/cpu.py", "sim/decode.py")
_TM = ("htm/", "stm/")

#: edge -> (target path prefixes, target function names, caller path
#: prefixes or None for "any caller that is not itself a target")
_EDGE_RULES = {
    "tm.begin": (_TM, ("begin",), _INTERPRETER),
    "tm.load": (_TM, ("load",), _INTERPRETER),
    "tm.store": (_TM, ("store",), _INTERPRETER),
    "tm.commit": (_TM, ("commit",), _INTERPRETER),
    "coherence.acquire": (("coherence/directory.py",), ("acquire",), None),
    "core.commit_plan": (("core/engine.py",), ("commit_plan",), None),
    "decode.chain_for": (("sim/decode.py",), ("chain_for",), None),
    "machine.build": (("sim/machine.py",), ("__init__",), None),
    "machine.run": (("sim/machine.py",), ("run",), None),
    "workloads.generate": (("workloads/",), ("generate",), None),
    "runner.run_sequential": (("sim/runner.py",), ("run_sequential",), None),
    "workloads.check_invariants": (
        ("workloads/base.py",), ("check_invariants",), None,
    ),
    "check.golden_diff": (
        ("check/golden.py",),
        ("golden_diff", "run_golden", "diff_memories"),
        None,
    ),
    "exp.cache.put": (("exp/cache.py",), ("put",), None),
    "exp.cache.get": (("exp/cache.py",), ("get",), None),
    "fuzz.generate_case": (("fuzz/gen.py",), ("generate_case",), None),
    "fuzz.run_case": (("fuzz/diff.py",), ("run_case",), None),
    "obs.emit": (("obs/events.py",), ("emit",), None),
    "obs.collect_machine": (("obs/collect.py",), ("collect_machine",), None),
}


def layer_of(relpath: str) -> str | None:
    """Layer of a file given relative to ``src/repro``, or None."""
    layer = _FILE_LAYER.get(relpath)
    if layer is None and "/" in relpath:
        layer = _PACKAGE_LAYER.get(relpath.split("/", 1)[0])
    return layer


def _closure_lines() -> frozenset[int]:
    """First lines of the handler closures in ``sim/decode.py``.

    A def or lambda nested in a top-level function there is built at
    compile time and *runs* per simulated instruction; everything else
    in the file (comprehensions included) runs at compile time.
    """
    tree = ast.parse((REPRO_ROOT / "sim" / "decode.py").read_text())
    nested = (ast.FunctionDef, ast.Lambda)
    return frozenset(
        node.lineno
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if node is not top and isinstance(node, nested)
    )


def _relpath(filename: str) -> str | None:
    try:
        return Path(filename).relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        return None


def bucket(stats: dict) -> dict[str, float]:
    """Fold ``cProfile.Profile().stats`` into the per-layer metrics."""
    closure_lines = _closure_lines()
    relpaths = {}

    def where(func) -> str | None:
        filename = func[0]
        if filename not in relpaths:
            relpaths[filename] = _relpath(filename)
        return relpaths[filename]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (primitive, _total, tottime, _cum, _callers) in stats.items():
        rel = where(func)
        # A repro file this table does not know yet is host time until
        # the next benchmark change maps it (the harness test flags it).
        layer = (layer_of(rel) if rel else None) or "host"
        if rel == "sim/decode.py" and func[1] in closure_lines:
            layer = "sim.decode.exec"
        self_s[layer] += tottime
        calls[layer] += primitive
    total = sum(self_s.values())

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        out[f"{layer}.calls"] = calls[layer]

    for edge in EDGES:
        prefixes, names, caller_prefixes = _EDGE_RULES[edge]
        targets = {
            func for func in stats
            if func[2] in names and (where(func) or "").startswith(prefixes)
        }
        cum_s = 0.0
        ncalls = 0
        for func in targets:
            for caller, (count, _prim, _tt, cum) in stats[func][4].items():
                if caller in targets:
                    continue
                if caller_prefixes is not None and not (
                    where(caller) or ""
                ).startswith(caller_prefixes):
                    continue
                cum_s += cum
                ncalls += count
        out[f"{edge}.cum_s"] = cum_s
        out[f"{edge}.calls"] = ncalls
    return out
