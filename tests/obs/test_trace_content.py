"""Pinned trace content: every emitting family, byte for byte.

One tiny traced point per family of emit sites — ``eager`` (conflict,
stall, abort), ``retcon`` (steal, repair), ``hybrid-retcon`` under a
one-entry read/write set (fallback, capacity attribution),
``retcon-fwd`` (forward), ``retcon-fwd`` on ``genome-sz`` under
one-entry sets (a cascaded ``dependence`` abort that names the
conflicting block) and ``lazy`` under one-entry sets (capacity
self-aborts name their structure and block, committer-wins dooms name
neither) — is run with an :class:`EventStream` and a
:class:`MetricsRegistry` attached, and three sha256 digests are
compared against recorded values:

* the JSON payload *without* ``sort_keys``, so each event's detail
  keys must keep their order (call-site keys, then ``cycle``, then
  ``label``);
* the ``str(event)`` lines ``repro run --trace`` prints;
* the registry snapshot.

A change to how events are stamped, stored or counted that alters a
single key, value or position fails here, even when the Perfetto
exporter (pinned separately by ``trace_export_fixture.json``) and the
simulated stats would not notice.  Re-record the digests only for a
deliberate change to trace content.
"""

import hashlib
import json

import pytest

from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import MachineConfig
from repro.sim.runner import run_workload

ONE_ENTRY = {"read_set_entries": 1, "write_set_entries": 1}

#: id -> (workload, system, machine overrides, kinds the point must
#: emit, sha256 of (payload JSON, str(event) lines, metrics snapshot
#: JSON))
POINTS = {
    "eager": (
        "python_opt",
        "eager",
        {},
        {"begin", "commit", "conflict", "stall", "abort"},
        (
            "0648e790ca2057efa210e77b3bb1040c37c76215b8c0e6fe88219c57ad1a6f74",
            "878c1a105c615fd95a4f834383a5eae474c293c25e79e7f00142de36ec53528a",
            "72f2747abef96af925257948c55fa25d0da6dc8aad45aa2b75515c91ecb10d19",
        ),
    ),
    "retcon": (
        "python_opt",
        "retcon",
        {},
        {"steal", "repair"},
        (
            "a1cdf3c133cf0e4982550db28d90ab88db483848d588bde1a12beb7e741bddd9",
            "eb6cea293cc1260145409a57ab97ba09dd936bf73ba5cf7061c2a5c523219c0e",
            "055e5bd052292c17ed82b39ede9b36a8d47a4afadc0603f88843c6d1e039347c",
        ),
    ),
    "hybrid-retcon": (
        "python_opt",
        "hybrid-retcon",
        ONE_ENTRY,
        {"fallback", "abort"},
        (
            "9ae0402d9e7e9d2c1c9944d74330bd003c9b6da0596d8fb51fed54be9210e5d2",
            "a63d05ffc389ea135da08b753f290a6478a5c820734296887e1116c33cf5eb1b",
            "5f57e4d31887a9bedbf855dfa557d93b8326e1c0552b2cd892753d401cb52fbd",
        ),
    ),
    "retcon-fwd": (
        "python_opt",
        "retcon-fwd",
        {},
        {"forward", "steal", "repair"},
        (
            "246c3aaa37e6797838a406293ce870d4a496d3b95e3ebd92c6edc393acd8aa22",
            "b469f547eb6652727f861874b9e2c679c5b73ee6c4da0794fc7484be6598c786",
            "6d3bceccf067b8f5e6e7de0c395f28ad5af6781cacf076ed4d4d963d2ac20d3f",
        ),
    ),
    "genome-sz/retcon-fwd": (
        "genome-sz",
        "retcon-fwd",
        ONE_ENTRY,
        {"forward", "abort"},
        (
            "14a3e6a2304f8fcb7aaeda8a689662d80d0f95798ba50f0efd2c4279d4533b87",
            "ccd4657bfa94cce23bda5f43fa929283fb162e07e9bfa2d7040845f2eacca8f3",
            "369a4412d32c12d8a1d7e4acc5679d6f74a4f2099031577ca7ec635aeafef76a",
        ),
    ),
    "lazy": (
        "python_opt",
        "lazy",
        ONE_ENTRY,
        {"abort"},
        (
            "7574ce92aae343195a67272be35f655a7ef3cbda056d837358985cf717100469",
            "44eedb6441a98569c866825c10219664a07da53dd292f5fb29cbb58b502bee7c",
            "085a43f56e9293ae9a6ff31312fcaf185841900b93d9000c738741d77f1c365c",
        ),
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_point(workload: str, system: str, overrides: dict):
    tracer, metrics = EventStream(), MetricsRegistry()
    result = run_workload(
        workload, system, ncores=4, seed=1, scale=0.05,
        config=MachineConfig(**overrides), tracer=tracer, metrics=metrics,
    )
    assert result.invariants_ok
    return tracer, metrics


def _abort_shapes(tracer) -> set:
    """``(reason, names a structure, names a block)`` of every abort."""
    return {
        (e.detail["reason"], "structure" in e.detail, "block" in e.detail)
        for e in tracer
        if e.kind == "abort"
    }


@pytest.mark.parametrize("name", sorted(POINTS))
def test_trace_content_is_pinned(name):
    workload, system, overrides, kinds, expected = POINTS[name]
    tracer, metrics = traced_point(workload, system, overrides)
    assert kinds <= set(tracer.summary())
    assert (
        _sha(json.dumps(tracer.to_payload())),
        _sha("\n".join(str(event) for event in tracer)),
        _sha(json.dumps(metrics.snapshot())),
    ) == expected


def test_a_cascaded_abort_names_the_conflict_block():
    tracer, _metrics = traced_point("genome-sz", "retcon-fwd", ONE_ENTRY)
    assert ("dependence", False, True) in _abort_shapes(tracer)


def test_only_a_capacity_abort_names_its_structure():
    tracer, _metrics = traced_point("python_opt", "lazy", ONE_ENTRY)
    assert _abort_shapes(tracer) == {
        ("capacity", True, True), ("conflict", False, False),
    }
