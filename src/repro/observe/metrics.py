"""Counters, gauges, and histograms with labeled series.

A :class:`MetricsRegistry` is a process-local, dependency-free take on
the Prometheus data model: a metric *name* identifies a family, a
frozen set of label pairs identifies one *series* inside it, and
:meth:`MetricsRegistry.snapshot` renders everything into plain dicts
(JSON-ready, stable ordering) for reports and tests.

The netserve server keeps its server-wide totals in a registry, and
each fetch session its counters (labels: ``policy``, ``link``); the
simulator's callers can pass one to accumulate cross-run series.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-ish scale; callers
#: with cycle clocks pass their own).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    def __init__(
        self, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"bucket bounds must be sorted and non-empty: {buckets}"
            )
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from buckets.

        Linear interpolation inside the owning bucket, the standard
        Prometheus ``histogram_quantile`` estimate; the observed
        ``min``/``max`` clamp the first and overflow buckets so the
        estimate never leaves the observed range.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1]: {q}")
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        rank = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[index]
            if cumulative + in_bucket >= rank:
                lower = self.min if index == 0 else self.bounds[index - 1]
                lower = min(lower, bound)
                fraction = (
                    (rank - cumulative) / in_bucket if in_bucket else 1.0
                )
                return min(
                    self.max, lower + (bound - lower) * fraction
                )
            cumulative += in_bucket
        return self.max


def _labels_key(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create families of labeled counters/gauges/histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = (name, _labels_key(labels))
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter()
        return series

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        key = (name, _labels_key(labels))
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge()
        return series

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = Histogram(buckets)
        return series

    def counter_total(self, name: str) -> float:
        """Sum of one counter family across all label series."""
        return sum(
            series.value
            for (family, _), series in self._counters.items()
            if family == name
        )

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """Plain-dict view of every series, sorted for stable output."""

        def row(key: Tuple[str, Labels], **fields: object) -> Dict[str, object]:
            name, labels = key
            return {"name": name, "labels": dict(labels), **fields}

        return {
            "counters": [
                row(key, value=series.value)
                for key, series in sorted(self._counters.items())
            ],
            "gauges": [
                row(key, value=series.value)
                for key, series in sorted(self._gauges.items())
            ],
            "histograms": [
                row(
                    key,
                    count=series.count,
                    sum=series.total,
                    min=series.min,
                    max=series.max,
                    mean=series.mean,
                    buckets=dict(
                        zip(
                            [str(b) for b in series.bounds] + ["+Inf"],
                            series.bucket_counts,
                        )
                    ),
                )
                for key, series in sorted(self._histograms.items())
            ],
        }
