"""Tests of the perf harness itself (not of the simulator's speed).

    PYTHONPATH=src python -m pytest perf -q -m ""

Outside tier-1 ``testpaths``: the quick runs below take about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import spec

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_quick(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=600,
    )


# ----------------------------------------------------------------------
# Static: names, counts, layer table, BENCHMARK.json
# ----------------------------------------------------------------------
def test_every_repro_module_maps_to_a_named_layer():
    modules = sorted(
        path.relative_to(layers.REPRO_ROOT).as_posix()
        for path in layers.REPRO_ROOT.rglob("*.py")
    )
    assert modules
    unmapped = [m for m in modules if layers.layer_of(m) not in spec.LAYERS]
    assert not unmapped, f"add these to perf/layers.py: {unmapped}"


def test_every_edge_has_a_rule():
    assert set(layers._EDGE_RULES) == set(spec.EDGES)


def test_names_and_counts_fit_the_contract():
    end_to_end = [name for name, *_ in spec.END_TO_END]
    per_layer = [name for name, *_ in spec.per_layer()]
    names = list(spec.WORKLOADS) + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)


def test_benchmark_json_is_the_one_spec_describes():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _stat(samples: list[float]) -> dict:
    ordered = sorted(samples)
    return {
        "value": ordered[len(ordered) // 2],
        "median": ordered[len(ordered) // 2],
        "q1": ordered[len(ordered) // 4],
        "q3": ordered[(3 * len(ordered)) // 4],
        "samples": samples,
    }


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([1.0, 1.01, 1.02, 1.03], [1.0, 1.01, 1.02, 1.03], "lower", "same"),
        ([1.0, 1.01, 1.02, 1.03], [1.3, 1.31, 1.32, 1.33], "lower", "worse"),
        ([1.0, 1.01, 1.02, 1.03], [0.8, 0.81, 0.82, 0.83], "lower", "better"),
        ([1.0, 1.01, 1.02, 1.03], [0.8, 0.81, 0.82, 0.83], "higher", "worse"),
        # a run noisier than the bound resolves nothing ...
        ([0.8, 1.0, 1.2, 1.4], [0.9, 1.1, 1.3, 1.5], "lower", "unresolved"),
        # ... unless the two sets of samples do not overlap at all
        ([0.8, 1.0, 1.2, 1.4], [0.4, 0.5, 0.6, 0.7], "lower", "better"),
    ],
)
def test_verdict(a, b, better, expected):
    assert compare.verdict(_stat(a), _stat(b), better, 0.10) == expected


# ----------------------------------------------------------------------
# End to end on the quick sizes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    runs = {}
    for label, seed in (("a", 1), ("b", 1), ("other", 2)):
        path = out / f"{label}.json"
        done = run_quick("--seed", str(seed), "-o", str(path))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        runs[label] = json.loads(path.read_text())
    runs["paths"] = {label: str(out / f"{label}.json") for label in runs}
    return runs


def test_quick_completes_all_workloads_without_failures(quick_runs):
    run = quick_runs["a"]
    assert run["quick"] is True
    assert sorted(run["workloads"]) == sorted(spec.WORKLOADS)
    expected = sorted(name for name, *_ in spec.per_layer())
    for result in run["workloads"].values():
        assert result["failed"] == 0 and result["attempted"] > 0
        assert sorted(result["per_layer"]) == expected
        assert all(
            stat["value"] > 0 for stat in result["end_to_end"].values()
        )


def test_layer_shares_sum_to_one(quick_runs):
    for result in quick_runs["a"]["workloads"].values():
        shares = sum(
            result["per_layer"][f"{layer}.share"]["value"]
            for layer in spec.LAYERS
        )
        assert shares == pytest.approx(1.0, abs=0.01)


def test_same_seed_repeats_digest_and_call_counts(quick_runs):
    for name in spec.WORKLOADS:
        a = quick_runs["a"]["workloads"][name]
        b = quick_runs["b"]["workloads"][name]
        other = quick_runs["other"]["workloads"][name]
        assert a["digest"] == b["digest"]
        assert a["digest"] != other["digest"]
        for metric, stat in a["per_layer"].items():
            if metric.endswith(".calls") or metric.startswith("simstat."):
                assert stat["value"] == b["per_layer"][metric]["value"], metric


def test_compare_accepts_a_pair_and_refuses_another_seed(quick_runs, capsys):
    paths = quick_runs["paths"]
    # quick units are milliseconds long, so the verdicts mean nothing
    # here: only that the pair is comparable and fully printed
    assert compare.main([paths["a"], paths["b"]]) in (0, 1)
    assert "sim_core_cycles_per_s" in capsys.readouterr().out
    assert compare.main([paths["a"], paths["other"]]) == 2
    assert "seed" in capsys.readouterr().out


def test_single_workload_prints_the_driver_summary_last():
    for trace, metrics in (
        ("0", [name for name, *_ in spec.END_TO_END]),
        ("1", [name for name, *_ in spec.per_layer()]),
    ):
        done = run_quick("--workload", "fuzz-checked", "--trace", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
        assert summary["correct"] is True and summary["failed"] == 0
        assert list(summary["metrics"]) == metrics
        assert all(
            sorted(stat) == ["unit", "value"]
            for stat in summary["metrics"].values()
        )
