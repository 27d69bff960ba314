"""Delta-debugging shrinker: minimize a diverging fuzz case.

Genes are the deletion unit (see :mod:`repro.fuzz.genes`: any gene
subset assembles to a valid, terminating program), which makes the
case space *shrink-closed* and classic ddmin applicable directly.
Every gene is addressed by a ``(thread, txn, gene)`` key; a candidate
is "keep exactly these keys" — transactions left with zero genes are
dropped, threads left with zero transactions become empty scripts.

``shrink_case`` runs complement-based ddmin over the keys, then a
greedy single-deletion sweep so the result is 1-minimal (no single
remaining gene can be removed), memoizing verdicts by case content so
re-tested subsets are free.  ``emit_regression`` renders a minimized
case as a self-contained pytest file under
``tests/fuzz/regressions/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.fuzz.diff import DEFAULT_BACKENDS, CaseOutcome, run_case
from repro.fuzz.gen import FuzzCase

#: (thread index, txn index, gene index)
GeneKey = tuple[int, int, int]

#: default ceiling on differential executions per shrink
MAX_EVALS = 500


@dataclass
class ShrinkResult:
    """The minimized case plus how we got there."""

    case: FuzzCase
    outcome: CaseOutcome
    evals: int = 0
    original_genes: int = 0
    final_genes: int = 0
    original_instructions: int = 0
    final_instructions: int = 0

    def summary(self) -> str:
        return (
            f"shrunk {self.original_genes} -> {self.final_genes} genes "
            f"({self.original_instructions} -> "
            f"{self.final_instructions} instructions) "
            f"in {self.evals} runs"
        )


def _all_keys(case: FuzzCase) -> list[GeneKey]:
    return [
        (t, i, j)
        for t, txns in enumerate(case.threads)
        for i, genes in enumerate(txns)
        for j, _ in enumerate(genes)
    ]


def _subset_case(case: FuzzCase, keep: set[GeneKey]) -> FuzzCase:
    """The case containing exactly the kept genes (empty txns dropped)."""
    threads = []
    for t, txns in enumerate(case.threads):
        thread = []
        for i, genes in enumerate(txns):
            kept = [g for j, g in enumerate(genes) if (t, i, j) in keep]
            if kept:
                thread.append(kept)
        threads.append(thread)
    return FuzzCase(
        seed=case.seed,
        nthreads=case.nthreads,
        config=case.config,
        threads=threads,
        layout=case.layout,
        origin="shrunk",
    )


def _chunks(items: list, n: int) -> list[list]:
    size = max(1, len(items) // n)
    out = [items[i:i + size] for i in range(0, len(items), size)]
    return out[:n - 1] + [sum(out[n - 1:], [])] if len(out) > n else out


@dataclass
class _Search:
    """Memoized "does this gene subset still diverge?" evaluator."""

    case: FuzzCase
    failing: Callable[[FuzzCase], bool]
    max_evals: int = MAX_EVALS
    evals: int = 0
    _memo: dict[str, bool] = field(default_factory=dict)

    def budget_left(self) -> bool:
        return self.evals < self.max_evals

    def fails(self, keep: set[GeneKey]) -> bool:
        candidate = _subset_case(self.case, keep)
        signature = json.dumps(
            candidate.to_dict()["threads"], sort_keys=True
        )
        if signature in self._memo:
            return self._memo[signature]
        if not self.budget_left():
            return False
        self.evals += 1
        verdict = self.failing(candidate)
        self._memo[signature] = verdict
        return verdict


def shrink_case(
    case: FuzzCase,
    failing: Callable[[FuzzCase], bool],
    max_evals: int = MAX_EVALS,
) -> Optional["ShrinkResult"]:
    """Minimize *case* under the predicate *failing*.

    *failing* takes a candidate case and returns True when the
    divergence still reproduces.  Returns None if the original case
    does not fail (nothing to shrink).
    """
    search = _Search(case=case, failing=failing, max_evals=max_evals)
    keys = _all_keys(case)
    if not search.fails(set(keys)):
        return None

    # -- complement-based ddmin ---------------------------------------
    n = 2
    while len(keys) >= 2 and search.budget_left():
        reduced = False
        for chunk in _chunks(keys, n):
            complement = [k for k in keys if k not in set(chunk)]
            if complement and search.fails(set(complement)):
                keys = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(keys):
                break
            n = min(len(keys), 2 * n)

    # -- greedy sweep to 1-minimality ---------------------------------
    changed = True
    while changed and search.budget_left():
        changed = False
        for key in list(keys):
            candidate = [k for k in keys if k != key]
            if candidate and search.fails(set(candidate)):
                keys = candidate
                changed = True

    minimized = _subset_case(case, set(keys))
    return ShrinkResult(
        case=minimized,
        outcome=CaseOutcome(case=minimized, backends=()),
        evals=search.evals,
        original_genes=len(_all_keys(case)),
        final_genes=len(keys),
        original_instructions=_assembled_instructions(case),
        final_instructions=_assembled_instructions(minimized),
    )


def _assembled_instructions(case: FuzzCase) -> int:
    """Exact assembled instruction count (prelude + genes + halt)."""
    from repro.fuzz.genes import assemble_txn

    return sum(
        len(assemble_txn(genes, t, case.layout))
        for t, txns in enumerate(case.threads)
        for genes in txns
    )


def divergence_predicate(
    backends: tuple = DEFAULT_BACKENDS,
    fault: Optional[str] = None,
    kinds: Optional[set] = None,
    config=None,
) -> Callable[[FuzzCase], bool]:
    """The standard failure predicate: any divergence (optionally
    restricted to *kinds*) when run on *backends*."""

    def failing(candidate: FuzzCase) -> bool:
        outcome = run_case(
            candidate,
            backends=backends,
            fault=fault,
            config=config,
        )
        if kinds is None:
            return not outcome.ok
        return any(d.kind in kinds for d in outcome.divergences)

    return failing


# ----------------------------------------------------------------------
# Regression emission
# ----------------------------------------------------------------------
REGRESSION_DIR = Path("tests/fuzz/regressions")

_TEMPLATE = '''"""Auto-generated fuzz regression ({case_id}).

Emitted by the shrinker from a diverging fuzz case
(seed={seed}, profile config hash {cfg}).{fault_note}

Divergences observed at emission time:
{divergences}

The embedded case re-runs differentially on {backends} and the test
fails while any divergence reproduces.
"""

import json

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FuzzCase

BACKENDS = {backends!r}

CASE = json.loads(r"""
{case_json}
""")


def test_fuzz_regression_{case_id}():
    outcome = run_case(FuzzCase.from_dict(CASE), backends=BACKENDS)
    assert outcome.ok, "\\n".join(str(d) for d in outcome.divergences)
'''


def case_id(case: FuzzCase) -> str:
    """Stable short id from the case content (not the seed — shrunk
    cases from different seeds must not collide)."""
    blob = json.dumps(case.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]


def emit_regression(
    case: FuzzCase,
    divergences: list,
    backends: tuple = DEFAULT_BACKENDS,
    fault: Optional[str] = None,
    directory: Path = REGRESSION_DIR,
) -> Path:
    """Write a self-contained pytest regression for *case*.

    Returns the path written.  The test always re-runs *without* fault
    injection: for real divergences it fails until the backend bug is
    fixed; for shrinker exercises driven by an injected fault it
    documents the minimized trigger and passes (the fault is noted in
    the docstring).
    """
    from repro.fuzz.gen import config_hash

    cid = case_id(case)
    fault_note = (
        f"\nThe divergence was induced by injected fault {fault!r} "
        f"(check/faults.py), so this test passes without the fault."
        if fault
        else ""
    )
    body = _TEMPLATE.format(
        case_id=cid,
        seed=case.seed,
        cfg=config_hash(case.config),
        fault_note=fault_note,
        divergences="\n".join(f"* {d}" for d in divergences) or "* (none)",
        backends=tuple(backends),
        case_json=json.dumps(case.to_dict(), indent=1, sort_keys=True),
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"test_fuzz_{cid}.py"
    path.write_text(body)
    return path
