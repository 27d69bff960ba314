"""The shared traffic-model generator behind the service workloads.

Real backend load has three statistical signatures the Table 2
workloads do not model:

* **popularity skew** — a few of millions of users/keys receive most
  of the traffic (Zipf), so a handful of cache blocks are hot while
  the key space is effectively unbounded;
* **arrival phases** — request rate is not stationary: diurnal swells
  and flash bursts compress inter-arrival gaps exactly when the hot
  keys are hottest;
* **template mixes** — every request instantiates one of a small set
  of transaction templates (touch a session, take a token, fan an
  event out, decrement stock) against the skewed key space.

:class:`TrafficModel` packages all three behind one seeded generator:
``requests(n)`` expands ``(spec, seed)`` into a deterministic stream
of :class:`Request` records that is byte-identical across processes
(:meth:`Request.encode` / :meth:`TrafficModel.stream_digest` make that
property testable).  The four workloads in this package consume one
stream each; a single model may also be shared between workloads, in
which case its :meth:`allocator` hands every consumer disjoint
simulated-memory ranges (see ``Workload._begin``).

Popularity is drawn from a **bounded table** rather than a
full-universe CDF: the top :attr:`TrafficSpec.hot_ranks` ranks get an
exact Zipf CDF (the millions-sized tail would cost O(users) memory per
draw table), and the entire cold tail is folded into one final bucket
whose analytic mass closes the table at exactly 1.0 — the same
pinned-tail discipline as :func:`repro.workloads.base.zipf_indices`
(PR 3): floating-point rounding must never leave a dead zone above
the last cumulative entry.  A draw landing in the tail bucket is
resolved uniformly over the cold ranks, which is faithful to within
the table resolution and O(1) per draw.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.mem.allocator import BumpAllocator

#: named arrival profiles: (phase name, fraction of requests, intensity).
#: Intensity multiplies the request rate, i.e. divides the mean
#: inter-arrival gap; fractions must sum to 1.0 per profile.
ARRIVAL_PROFILES: dict[str, tuple[tuple[str, float, float], ...]] = {
    # stationary load (the control profile)
    "steady": (("steady", 1.0, 1.0),),
    # night / morning ramp / peak / evening decay
    "diurnal": (
        ("night", 0.25, 0.4),
        ("morning", 0.25, 1.0),
        ("peak", 0.30, 2.5),
        ("evening", 0.20, 1.0),
    ),
    # baseline traffic punctured by two flash bursts (a push
    # notification, a flash sale): short windows at 8x rate
    "bursty": (
        ("calm", 0.30, 0.7),
        ("burst", 0.05, 8.0),
        ("calm2", 0.30, 0.7),
        ("burst2", 0.05, 8.0),
        ("calm3", 0.30, 0.7),
    ),
}


@dataclass(frozen=True)
class TrafficSpec:
    """All knobs of one traffic model (JSON-stable, hence cache-safe)."""

    #: size of the simulated user-id universe.  Ids double as
    #: popularity ranks: id 0 is the most popular user.
    users: int = 2_000_000
    #: Zipf exponent of user/key popularity
    skew: float = 1.1
    #: ranks covered exactly by the popularity table; everything
    #: beyond shares the analytic tail bucket
    hot_ranks: int = 512
    #: arrival profile name (a key of :data:`ARRIVAL_PROFILES`)
    burst: str = "diurnal"
    #: mean inter-arrival gap in cycles at intensity 1.0
    base_gap: int = 48

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.burst not in ARRIVAL_PROFILES:
            raise ValueError(
                f"unknown arrival profile {self.burst!r}; choose from "
                f"{sorted(ARRIVAL_PROFILES)}"
            )
        if self.skew <= 0:
            raise ValueError(f"skew must be positive, got {self.skew}")


def _harmonic_tail(hot: int, users: int, skew: float) -> float:
    """Analytic mass of ranks [hot, users) under weight (k+1)**-skew.

    Integral approximation of the generalized harmonic tail
    ``sum_{k=hot}^{users-1} (k+1)**-s``; exact enough for a single
    catch-all bucket (the table resolves individual hot ranks, the
    tail only needs its total mass).
    """
    if hot >= users:
        return 0.0
    lo, hi = hot + 0.5, users + 0.5
    if abs(skew - 1.0) < 1e-9:
        return math.log(hi / lo)
    return (lo ** (1.0 - skew) - hi ** (1.0 - skew)) / (skew - 1.0)


def popularity_table(
    skew: float, hot_ranks: int, users: int
) -> list[float]:
    """The bounded Zipf CDF: one exact entry per hot rank plus a
    single cold-tail bucket, with the final entry pinned to 1.0.

    The returned list has ``min(hot_ranks, users) + 1`` entries and is
    non-decreasing; entry *i* (for hot ranks) is ``P(rank <= i)`` and
    the last entry is exactly ``1.0`` — the PR 3 tail guard: a uniform
    draw in ``(table[-2], 1.0]`` must select the tail bucket by
    construction, never fall off the end of a CDF that rounding left
    just below one.
    """
    hot = min(hot_ranks, users)
    if hot < 1:
        raise ValueError(f"need at least one hot rank, got {hot_ranks}")
    weights = [(i + 1) ** -skew for i in range(hot)]
    total = sum(weights) + _harmonic_tail(hot, users, skew)
    table = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        table.append(min(acc, 1.0))
    # The cold-tail bucket absorbs all remaining mass; pin it exactly.
    table.append(1.0)
    return table


@dataclass(frozen=True)
class Request:
    """One request in the traffic stream."""

    #: position in the stream (0-based)
    index: int
    #: simulated user id == popularity rank (0 is hottest)
    user: int
    #: non-transactional cycles separating this request from the
    #: previous one on its thread (the arrival model)
    gap: int
    #: arrival phase name at this point of the stream
    phase: str
    #: 32 deterministic bits for workload-private choices (secondary
    #: keys, fan-out sizes, operation mixes)
    aux: int

    def encode(self) -> bytes:
        """Canonical byte form (the determinism-contract currency)."""
        phase = self.phase.encode("utf-8")
        return struct.pack(
            f"<QQQI{len(phase)}s",
            self.index, self.user, self.gap, self.aux, phase,
        )


class TrafficModel:
    """A seeded, deterministic request-stream generator.

    One model instance may drive several workloads (correlated
    traffic); each :meth:`requests` call with a distinct ``salt``
    yields an independent (but reproducible) sub-stream, and
    :meth:`allocator` exposes a single shared bump allocator so
    co-generated workloads can never collide on simulated-memory
    ranges.
    """

    def __init__(self, spec: TrafficSpec, seed: int = 1) -> None:
        self.spec = spec
        self.seed = seed
        self._table = popularity_table(
            spec.skew, spec.hot_ranks, spec.users
        )
        self._hot = len(self._table) - 1
        #: cumulative (boundary, name, intensity) phase schedule
        profile = ARRIVAL_PROFILES[spec.burst]
        total = sum(fraction for _name, fraction, _i in profile)
        self._phases = []
        acc = 0.0
        for name, fraction, intensity in profile:
            acc += fraction / total
            self._phases.append((acc, name, intensity))
        self._alloc: Optional[BumpAllocator] = None

    # ------------------------------------------------------------------
    # Shared layout
    # ------------------------------------------------------------------
    def allocator(self) -> BumpAllocator:
        """The model's shared allocator, created on first use.

        Every workload generated against this model allocates from
        this single monotonic allocator (see ``Workload._begin``), so
        two workloads sharing one model receive disjoint address
        ranges by construction.
        """
        if self._alloc is None:
            self._alloc = BumpAllocator()
        return self._alloc

    # ------------------------------------------------------------------
    # Popularity
    # ------------------------------------------------------------------
    def draw_user(self, rng: random.Random) -> int:
        """One Zipf-popular user id (0 = hottest)."""
        u = rng.random()
        rank = bisect_left(self._table, u)
        if rank < self._hot:
            return rank
        if self._hot >= self.spec.users:
            # Degenerate universe (users <= hot_ranks): the tail
            # bucket is massless but float rounding can still land
            # here; the last real rank absorbs it.
            return self.spec.users - 1
        return rng.randrange(self._hot, self.spec.users)

    # ------------------------------------------------------------------
    # Arrival
    # ------------------------------------------------------------------
    def _phase_at(self, position: float) -> tuple[str, float]:
        for boundary, name, intensity in self._phases:
            if position < boundary:
                return name, intensity
        name, intensity = self._phases[-1][1:]
        return name, intensity

    def _gap(self, rng: random.Random, intensity: float) -> int:
        """Integer inter-arrival gap with mean ~ base_gap/intensity.

        Integer arithmetic only: ``randrange`` over twice the mean is
        platform-exact, where an exponential draw would ride libm's
        last-ulp behavior into the determinism contract.
        """
        span = max(1, int(2 * self.spec.base_gap / intensity))
        return 1 + rng.randrange(span)

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    def _rng(self, salt: int) -> random.Random:
        # Mix without hash(): PYTHONHASHSEED must not reach the stream.
        return random.Random((self.seed * 0x9E3779B1) ^ (salt * 0x85EBCA77))

    def requests(self, count: int, salt: int = 0) -> list[Request]:
        """Expand the model into *count* requests (deterministic)."""
        rng = self._rng(salt)
        out = []
        for index in range(count):
            position = index / count if count else 0.0
            phase, intensity = self._phase_at(position)
            out.append(
                Request(
                    index=index,
                    user=self.draw_user(rng),
                    gap=self._gap(rng, intensity),
                    phase=phase,
                    aux=rng.getrandbits(32),
                )
            )
        return out

    def stream_digest(self, count: int, salt: int = 0) -> str:
        """SHA-256 over the canonical byte stream — the cross-process
        determinism contract: same (spec, seed, count, salt), same
        digest, in any process on any run."""
        digest = hashlib.sha256()
        for request in self.requests(count, salt=salt):
            digest.update(request.encode())
        return digest.hexdigest()
