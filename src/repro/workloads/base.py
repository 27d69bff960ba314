"""Workload abstraction and shared generation helpers."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field

from repro.mem.allocator import BumpAllocator
from repro.mem.memory import MainMemory
from repro.sim.script import ThreadScript


@dataclass(frozen=True)
class WorkloadSpec:
    """Table 2 row: name, provenance, and input description."""

    name: str
    description: str
    parameters: str = ""


@dataclass
class InvariantResult:
    """Outcome of one post-run correctness check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class GeneratedWorkload:
    """Everything a run needs: initial memory, scripts, and checkers."""

    memory: MainMemory
    scripts: list[ThreadScript]
    checks: list = field(default_factory=list)  # list[callable(mem)->InvariantResult]
    #: demand byte-identical final memory vs the sequential golden run
    #: (only sound when the workload's final state is order-independent,
    #: e.g. the fuzzer's commutative profile)
    strict_golden: bool = False

    def check_invariants(self, memory: MainMemory) -> list[InvariantResult]:
        return [check(memory) for check in self.checks]


class Workload(abc.ABC):
    """A workload model that can generate scripts for N threads.

    ``scale`` linearly scales the amount of work per thread; 1.0 is
    the default benchmarking size (chosen so a full Figure 9 sweep
    finishes in minutes on a laptop), smaller values are used by the
    test suite.
    """

    spec: WorkloadSpec

    @abc.abstractmethod
    def generate(
        self, nthreads: int, seed: int = 1, scale: float = 1.0
    ) -> GeneratedWorkload:
        """Build initial memory and one script per thread."""

    def _begin(
        self, seed: int = 1
    ) -> tuple[MainMemory, BumpAllocator, random.Random]:
        """Fresh generation state: memory, allocator, seeded RNG."""
        return MainMemory(), BumpAllocator(), make_rng(seed)

    @staticmethod
    def scaled(count: int, scale: float, minimum: int = 1) -> int:
        return max(minimum, int(round(count * scale)))


def make_rng(seed: int) -> random.Random:
    """Deterministic RNG for workload generation."""
    return random.Random(seed)


def zipf_indices(
    rng: random.Random, count: int, universe: int, skew: float = 1.1
) -> list[int]:
    """Draw *count* indices from a Zipf-like distribution over
    [0, universe).  Index 0 is the most popular (the "None object").
    """
    if universe < 1:
        raise ValueError(f"universe must be >= 1, got {universe}")
    weights = [1.0 / ((i + 1) ** skew) for i in range(universe)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    # Floating-point rounding can leave the CDF tail just below 1.0,
    # which would bias a draw of u in (cumulative[-1], 1.0) toward the
    # last bucket by fiat rather than by weight; pin it exactly.
    cumulative[-1] = 1.0
    out = []
    for _ in range(count):
        u = rng.random()
        lo, hi = 0, universe - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out
