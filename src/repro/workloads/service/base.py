"""Shared base for the service workloads.

A :class:`ServiceWorkload` is a normal :class:`~repro.workloads.base.Workload`
whose request stream comes from a
:class:`~repro.workloads.service.traffic.TrafficModel` instead of
hand-rolled per-workload RNG draws.  Each ``generate`` builds its own
``TrafficModel(seed)`` and deals the workload's sub-stream to the
threads with :meth:`ServiceWorkload._stream`.
"""

from __future__ import annotations

from repro.workloads.base import Workload
from repro.workloads.service.traffic import TrafficModel


class ServiceWorkload(Workload):
    """A workload driven by a seeded :class:`TrafficModel`."""

    #: per-workload stream salt: each workload draws a reproducible
    #: but distinct request sub-stream from the same seed
    STREAM_SALT = 0
    #: requests per thread at scale 1.0
    REQUESTS_PER_THREAD = 24

    def _stream(
        self, traffic: TrafficModel, nthreads: int, scale: float
    ):
        """The workload's request stream, dealt round-robin to threads.

        Returns ``(requests, owner)`` where ``owner[i]`` is the thread
        executing request *i*.  Round-robin dealing keeps the stream
        itself independent of ``nthreads`` — the same seed's traffic
        hits the same keys at every core count, so scaling curves vary
        contention handling, not the traffic.
        """
        per_thread = self.scaled(self.REQUESTS_PER_THREAD, scale)
        requests = traffic.requests(
            per_thread * nthreads, salt=self.STREAM_SALT
        )
        owner = [req.index % nthreads for req in requests]
        return requests, owner
