"""Typed metrics: counters, gauges, and histograms in one registry.

Counts are collected, distributions are observed:

* **Counts are collected.**  The simulator counts in one place,
  :class:`repro.sim.stats.CoreStats`, whether or not a registry is
  attached.  :mod:`repro.obs.collect` copies those counts into
  counters and gauges once, when the run finishes, so no simulator
  site bumps a counter and an attached run counts exactly what an
  unattached one does.
* **Distributions are observed.**  A histogram cannot be rebuilt from
  a total, so it is observed live, at commit/abort boundaries only
  (durations in :meth:`repro.sim.stats.MachineStats.record_txn`, set
  occupancy in the TM system).  Each site guards with one ``if
  self.metrics is not None`` check, so a run without a registry pays a
  pointer compare per transaction boundary, never per instruction.
* **Held handles.**  Those histograms are bound once when the
  registry is attached (``bind_metrics``), so an observation costs no
  registry lookup.

Histograms use power-of-two buckets: ``observe(v)`` lands ``v`` in
bucket ``v.bit_length()``, i.e. bucket *i* covers ``[2**(i-1), 2**i)``
— cheap, allocation-free, and plenty for cycle-count distributions.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

#: label sets are stored as a sorted tuple of (key, value) pairs
LabelKey = tuple

_HIST_BUCKETS = 40  # 2**39 cycles ≈ half a trillion; beyond any run


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Union[int, float]:
        return self.value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Power-of-two-bucketed distribution of non-negative integers."""

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum",
                 "buckets")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum = 0
        self.buckets = [0] * _HIST_BUCKETS

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative {value}")
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.buckets[min(int(value).bit_length(), _HIST_BUCKETS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Upper bound of the bucket holding the q-th percentile
        (0 < q <= 100); 0 when empty."""
        if not 0 < q <= 100:
            raise ValueError(f"percentile {q} out of (0, 100]")
        if self.count == 0:
            return 0
        threshold = self.count * q / 100.0
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= threshold:
                return (1 << i) - 1 if i else 0
        return self.maximum

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum or 0,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All metrics of one run, keyed by (name, labels).

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same object afterwards; asking for an existing name with a
    different type raises (one name, one type).  The one-shot forms
    (``inc``/``set``/``observe``) serve end-of-run collection; a hot
    path holds its histogram's handle.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}

    # -- typed accessors ---------------------------------------------------
    def _get(self, cls, name: str, labels: dict) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- one-shot conveniences (cold paths) --------------------------------
    def inc(self, name: str, n: int = 1, **labels) -> None:
        self.counter(name, **labels).inc(n)

    def set(self, name: str, value, **labels) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: int, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for _key, metric in sorted(self._metrics.items()):
            yield metric

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self, kind: Optional[str] = None) -> dict:
        """JSON-safe dump: ``{"name{k=v,...}": value-or-hist-dict}``
        (only metrics of one *kind* when given)."""
        out = {}
        for metric in self:
            if kind is not None and metric.kind != kind:
                continue
            key = metric.name
            if metric.labels:
                inner = ",".join(f"{k}={v}" for k, v in metric.labels)
                key = f"{metric.name}{{{inner}}}"
            out[key] = metric.snapshot()
        return out


def validate_latency_histogram(snapshot: dict, name: str = "") -> None:
    """Raise ``ValueError`` unless *snapshot* is a structurally valid
    :meth:`Histogram.snapshot` dict (the form persisted inside traced
    results and consumed by the service-traffic figure).

    Checks the shape CI's service-smoke job schema-validates: every
    summary field present with the right type, internally consistent
    (``min <= max``, ``p50 <= p99``, ``mean == total/count``), and
    non-negative.  ``p99`` may exceed ``max`` — percentiles report the
    upper bound of their power-of-two bucket, not the sample.
    """

    def fail(message: str) -> None:
        where = f" {name!r}" if name else ""
        raise ValueError(f"invalid latency histogram{where}: {message}")

    if not isinstance(snapshot, dict):
        fail(f"expected a snapshot dict, got {type(snapshot).__name__}")
    for key in ("count", "total", "min", "max", "p50", "p99"):
        value = snapshot.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{key!r} must be an integer, got {value!r}")
        if value < 0:
            fail(f"{key!r} must be non-negative, got {value}")
    mean = snapshot.get("mean")
    if not isinstance(mean, (int, float)) or isinstance(mean, bool):
        fail(f"'mean' must be a number, got {mean!r}")
    count, total = snapshot["count"], snapshot["total"]
    if count == 0:
        if total or snapshot["max"] or mean:
            fail("count is 0 but totals are non-zero")
        return
    if snapshot["min"] > snapshot["max"]:
        fail(f"min {snapshot['min']} > max {snapshot['max']}")
    if snapshot["p50"] > snapshot["p99"]:
        fail(f"p50 {snapshot['p50']} > p99 {snapshot['p99']}")
    if abs(mean - total / count) > 1e-9:
        fail(f"mean {mean} != total/count {total / count}")


def render_snapshot(snapshot: dict) -> str:
    """ASCII rendering of a :meth:`MetricsRegistry.snapshot` dict (the
    form persisted inside traced results — scalars for counters and
    gauges, summary dicts for histograms)."""
    if not snapshot:
        return "(no metrics recorded)"
    scalars = {
        k: v for k, v in snapshot.items() if not isinstance(v, dict)
    }
    hists = {k: v for k, v in snapshot.items() if isinstance(v, dict)}
    lines = []
    if scalars:
        width = max(len(k) for k in scalars)
        for key in sorted(scalars):
            lines.append(f"{key:{width}s}  {scalars[key]}")
    if hists:
        width = max(len(k) for k in hists)
        for key in sorted(hists):
            snap = hists[key]
            lines.append(
                f"{key:{width}s}  n={snap['count']} "
                f"mean={snap['mean']:.1f} min={snap['min']} "
                f"p50<={snap['p50']} p99<={snap['p99']} "
                f"max={snap['max']}"
            )
    return "\n".join(lines)
