"""Production-traffic service workloads.

Four backend-shaped workloads, each driven by a seeded
:class:`~repro.workloads.service.traffic.TrafficModel` of one fixed
shape — Zipf user popularity over millions of simulated ids, diurnal
arrival phases, per-request transaction templates.  Together they are
the "heavy traffic from millions of users" half of the north star: the
hot shared counters that dominate real service backends are exactly
the auxiliary-data conflicts RETCON repairs at commit time.

========================  ==============================================
``service-session``       TTL touch (max-fold) + branch-guarded eviction
``service-limiter``       token buckets: branch-guarded RMW + conservation
``service-feed``          fan-out counters: pure commutative increments
``service-checkout``      stock decrement with sell-out branch pins
========================  ==============================================
"""

from repro.workloads.service.base import ServiceWorkload
from repro.workloads.service.checkout import CheckoutWorkload
from repro.workloads.service.feed import FeedFanoutWorkload
from repro.workloads.service.limiter import RateLimiterWorkload
from repro.workloads.service.session import SessionStoreWorkload
from repro.workloads.service.traffic import (
    Request,
    TrafficModel,
    popularity_table,
)

#: registry names of the four service workloads, suite order
SERVICE_WORKLOADS = (
    "service-session",
    "service-limiter",
    "service-feed",
    "service-checkout",
)

__all__ = [
    "SERVICE_WORKLOADS",
    "CheckoutWorkload",
    "FeedFanoutWorkload",
    "RateLimiterWorkload",
    "Request",
    "ServiceWorkload",
    "SessionStoreWorkload",
    "TrafficModel",
    "popularity_table",
]
