"""The traffic model behind the service workloads.

Real backend load has three statistical signatures the Table 2
workloads do not model:

* **popularity skew** — a few of millions of users/keys receive most
  of the traffic (Zipf), so a handful of cache blocks are hot while
  the key space is effectively unbounded;
* **arrival phases** — request rate is not stationary: a diurnal
  swell compresses inter-arrival gaps exactly when the hot keys are
  hottest;
* **template mixes** — every request instantiates one of a small set
  of transaction templates (touch a session, take a token, fan an
  event out, decrement stock) against the skewed key space.

The model's shape is fixed (:data:`USERS`, :data:`SKEW`,
:data:`HOT_RANKS`, :data:`BASE_GAP`, :data:`DIURNAL`); only the seed
varies.  :class:`TrafficModel` expands a seed into a deterministic
stream of :class:`Request` records that is byte-identical across
processes (:meth:`Request.encode` / :meth:`TrafficModel.stream_digest`
make that property testable).  Each of the four workloads in this
package builds its own model and draws one sub-stream from it, keyed
by its ``STREAM_SALT``.

Popularity is drawn from a **bounded table** rather than a
full-universe CDF: the top :data:`HOT_RANKS` ranks get an exact Zipf
CDF (the millions-sized tail would cost O(users) memory per draw
table), and the entire cold tail is folded into one final bucket
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

#: size of the simulated user-id universe.  Ids double as popularity
#: ranks: id 0 is the most popular user.
USERS = 2_000_000
#: Zipf exponent of user/key popularity
SKEW = 1.1
#: ranks covered exactly by the popularity table; everything beyond
#: shares the analytic tail bucket
HOT_RANKS = 512
#: mean inter-arrival gap in cycles at intensity 1.0
BASE_GAP = 48
#: the arrival profile, night / morning ramp / peak / evening decay
#: (25/25/30/20 % of the stream): (end of the phase as a fraction of
#: the stream, phase name, intensity).  Intensity multiplies the
#: request rate, i.e. divides the mean inter-arrival gap.
DIURNAL = (
    (0.25, "night", 0.4),
    (0.5, "morning", 1.0),
    (0.8, "peak", 2.5),
    (1.0, "evening", 1.0),
)


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


#: the popularity CDF every model draws from
_TABLE = popularity_table(SKEW, HOT_RANKS, USERS)


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
    """A seeded, deterministic request-stream generator: each
    :meth:`requests` call with a distinct ``salt`` yields an
    independent (but reproducible) sub-stream."""

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed

    def draw_user(self, rng: random.Random) -> int:
        """One Zipf-popular user id (0 = hottest)."""
        rank = bisect_left(_TABLE, rng.random())
        if rank < HOT_RANKS:
            return rank
        return rng.randrange(HOT_RANKS, USERS)

    @staticmethod
    def _gap(rng: random.Random, intensity: float) -> int:
        """Integer inter-arrival gap with mean ~ BASE_GAP/intensity.

        Integer arithmetic only: ``randrange`` over twice the mean is
        platform-exact, where an exponential draw would ride libm's
        last-ulp behavior into the determinism contract.
        """
        span = max(1, int(2 * BASE_GAP / intensity))
        return 1 + rng.randrange(span)

    def _rng(self, salt: int) -> random.Random:
        # Mix without hash(): PYTHONHASHSEED must not reach the stream.
        return random.Random((self.seed * 0x9E3779B1) ^ (salt * 0x85EBCA77))

    def requests(self, count: int, salt: int = 0) -> list[Request]:
        """Expand the model into *count* requests (deterministic)."""
        rng = self._rng(salt)
        out = []
        for index in range(count):
            position = index / count
            _end, phase, intensity = next(
                entry for entry in DIURNAL if position < entry[0]
            )
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
        determinism contract: same (seed, count, salt), same digest,
        in any process on any run."""
        digest = hashlib.sha256()
        for request in self.requests(count, salt=salt):
            digest.update(request.encode())
        return digest.hexdigest()
