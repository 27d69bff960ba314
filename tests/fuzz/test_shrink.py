"""Shrinker: ddmin minimality, predicate wiring, regression emission."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.gen import FUZZ_PROFILES, generate_case
from repro.fuzz.genes import G_RMW
from repro.fuzz.shrink import (
    _all_keys,
    _subset_case,
    case_id,
    divergence_predicate,
    emit_regression,
    shrink_case,
)


def _rmw_keys(case):
    return {
        (t, i, j)
        for t, txns in enumerate(case.threads)
        for i, genes in enumerate(txns)
        for j, g in enumerate(genes)
        if g[0] == G_RMW
    }


class TestSubsetCase:
    def test_empty_txns_dropped(self):
        case = generate_case(0, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        keys = _all_keys(case)
        keep = {keys[0]}
        sub = _subset_case(case, keep)
        assert sub.origin == "shrunk"
        assert sub.txn_count() == 1
        assert len(sub.threads) == case.nthreads

    def test_keep_all_preserves_genes(self):
        case = generate_case(3, FUZZ_PROFILES["fuzz-mixed"], nthreads=2)
        sub = _subset_case(case, set(_all_keys(case)))
        assert sub.threads == case.threads


class TestShrinkCase:
    def test_non_failing_case_returns_none(self):
        case = generate_case(0, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        assert shrink_case(case, lambda c: False) is None

    def test_synthetic_predicate_reaches_minimum(self):
        """Predicate: 'contains at least one RMW gene' — the minimum
        is exactly one gene; ddmin plus the greedy sweep must find it."""
        case = generate_case(5, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        assert _rmw_keys(case), "seed must generate at least one RMW"
        result = shrink_case(case, lambda c: bool(_rmw_keys(c)))
        assert result is not None
        assert result.final_genes == 1
        assert result.original_genes == len(_all_keys(case))
        only = [
            g for txns in result.case.threads for txn in txns for g in txn
        ]
        assert len(only) == 1 and only[0][0] == G_RMW
        assert "shrunk" in result.summary()

    @pytest.mark.slow
    def test_fault_shrinks_to_acceptance_bound(self):
        """ISSUE acceptance: with an injected fault the shrinker must
        reduce a diverging program to <= 15 instructions."""
        case = generate_case(7, FUZZ_PROFILES["fuzz-rmw"])
        predicate = divergence_predicate(
            backends=("lazy-vb", "retcon"), fault="plan-store-skew"
        )
        result = shrink_case(case, predicate)
        assert result is not None
        assert result.final_instructions <= 15, result.summary()
        assert result.final_genes < result.original_genes


class TestEmitRegression:
    def test_emitted_file_is_runnable(self, tmp_path):
        case = generate_case(0, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        shrunk = _subset_case(case, set(list(_all_keys(case))[:2]))
        path = emit_regression(
            shrunk, [], backends=("eager", "retcon"), directory=tmp_path
        )
        assert path.name == f"test_fuzz_{case_id(shrunk)}.py"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", str(path)],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[2],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fault_note_in_docstring(self, tmp_path):
        case = _subset_case(
            generate_case(1, FUZZ_PROFILES["fuzz-rmw"], nthreads=2),
            set(_all_keys(generate_case(1, FUZZ_PROFILES["fuzz-rmw"],
                                        nthreads=2))[:1]),
        )
        path = emit_regression(
            case, [], fault="plan-store-skew", directory=tmp_path
        )
        text = path.read_text()
        assert "plan-store-skew" in text
        assert "passes without the fault" in text

    def test_case_id_content_addressed(self):
        a = generate_case(0, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        b = generate_case(0, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        c = generate_case(1, FUZZ_PROFILES["fuzz-rmw"], nthreads=2)
        assert case_id(a) == case_id(b)
        assert case_id(a) != case_id(c)
