"""Metrics registry — counters, gauges and fixed-bucket histograms.

The registry is the single store for a run's quantitative telemetry.
Every :class:`~repro.sim.kernel.Simulator` owns one (via its
:class:`~repro.obs.telemetry.Telemetry`), and every instrumented layer
— the network fabric, the detector roles, the heartbeat monitors —
registers its metrics there instead of keeping hand-rolled counters.
``(seed, workload, topology)`` determinism extends to the registry: two
identical runs produce byte-identical expositions.

Design notes
------------
* Metrics are *get-or-create*: registering the same name twice returns
  the same object; re-registering under a different type raises.
* :class:`CounterVec` subclasses :class:`collections.Counter`, so hot
  paths keep the idiomatic ``vec[key] += 1`` — a labelled metric *is* a
  Counter whose keys are label-value tuples (or a scalar when the vec
  has a single label).  A hot path whose labels are fixed binds
  :meth:`CounterVec.handle` once and calls it per event.
* A counter counts when its event happens.  Nothing is folded in
  later, so every read — ``get``, ``metrics``, ``merge``, a pickle —
  sees current values with no work of its own.
* :class:`Histogram` keeps both fixed buckets (for Prometheus
  exposition) and the raw observations (for exact percentiles at
  simulation scale).
* :meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.from_dict`
  are the JSON wire form used by the cluster admin protocol: a scraped
  registry round-trips losslessly (infinite bucket edges travel as the
  string ``"+Inf"``) so :meth:`MetricsRegistry.merge` can fold remote
  node registries exactly as it folds experiment shards.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter as _Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CounterMetric",
    "Gauge",
    "Histogram",
    "CounterVec",
    "GaugeVec",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "count_error",
]

#: Generic duration buckets in simulated time units.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, math.inf,
)

LabelKey = Union[object, Tuple[object, ...]]


def _edge_to_json(edge: float):
    if math.isinf(edge):
        return "+Inf" if edge > 0 else "-Inf"
    return edge


def _edge_from_json(edge) -> float:
    if edge == "+Inf":
        return math.inf
    if edge == "-Inf":
        return -math.inf
    return float(edge)


class CounterMetric:
    """A single monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "CounterMetric") -> None:
        self.value += other.value

    def samples(self) -> Iterator[Tuple[dict, float]]:
        yield {}, self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def merge(self, other: "Gauge") -> None:
        # Gauges are point-in-time values; the incoming snapshot wins
        # (registries are merged in shard order, so this is still
        # deterministic for any worker count).
        self.value = other.value

    def samples(self) -> Iterator[Tuple[dict, float]]:
        yield {}, self.value


class _VecMixin:
    """Shared label handling for Counter/Gauge vectors."""

    labelnames: Tuple[str, ...]

    def _label_dict(self, key: LabelKey) -> dict:
        if len(self.labelnames) == 1 and not isinstance(key, tuple):
            key = (key,)
        if not isinstance(key, tuple) or len(key) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {key!r}"
            )
        return dict(zip(self.labelnames, key))

    def samples(self) -> Iterator[Tuple[dict, float]]:
        # Deterministic output order regardless of increment order.
        for key in sorted(self, key=lambda k: str(k)):
            yield self._label_dict(key), self[key]


def _rebuild_vec(cls, name, help, labelnames, items):
    vec = cls(name, help, labelnames)
    vec.update(items)
    return vec


class CounterVec(_VecMixin, _Counter):
    """A labelled counter: a ``Counter`` whose keys are label values.

    Hot paths use plain Counter syntax — ``vec[("control", "Heartbeat")]
    += 1`` or, for a single-label vec, ``vec[pid] += 1`` — or, when the
    label values are known up front, a pre-resolved :meth:`handle`.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__()
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def handle(self, key: LabelKey):
        """A bound increment callable for one label-value key.

        Instrumented hot paths resolve their labels once (at bind time)
        instead of building and hashing the key tuple per call::

            h = vec.handle((pid, "enqueue"))
            ...
            h()        # vec[(pid, "enqueue")] += 1
            h(amount)  # vec[(pid, "enqueue")] += amount
        """
        def inc(amount: float = 1, _vec=self, _key=key) -> None:
            _vec[_key] = _vec[_key] + amount

        return inc

    def merge(self, other: "CounterVec") -> None:
        for key, value in other.items():
            self[key] += value

    def __reduce__(self):
        # Counter.__reduce__ would call ``CounterVec(dict(self))``,
        # silently binding the counts dict to ``name`` — shard results
        # cross process boundaries, so spell the rebuild out.
        return (
            _rebuild_vec,
            (type(self), self.name, self.help, self.labelnames, dict(self)),
        )


class GaugeVec(_VecMixin, dict):
    """A labelled gauge; assign with ``vec[key] = value``."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__()
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def merge(self, other: "GaugeVec") -> None:
        self.update(other)

    def __reduce__(self):
        return (
            _rebuild_vec,
            (type(self), self.name, self.help, self.labelnames, dict(self)),
        )


class Histogram:
    """Fixed-bucket histogram with exact percentiles.

    Bucket semantics follow Prometheus: an observation lands in the
    first bucket whose upper edge is ``>= value`` (``le`` — less than or
    equal), and exposition is cumulative.  The raw observations are kept
    so :meth:`percentile` is exact, not interpolated from buckets: an
    observation is appended, and the list is sorted when next read.
    """

    kind = "histogram"
    __slots__ = (
        "name", "help", "buckets", "bucket_counts", "sum", "_values", "_sorted"
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        edges = sorted(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket")
        if edges[-1] != math.inf:
            edges.append(math.inf)
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(edges)
        self.bucket_counts: List[int] = [0] * len(edges)
        self.sum: float = 0.0
        self._values: List[float] = []
        self._sorted = True

    @property
    def count(self) -> int:
        return len(self._values)

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self._values.append(value)
        self._sorted = False

    def _ordered(self) -> List[float]:
        """The observations, sorted in place if any arrived since the
        last read."""
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def cumulative_counts(self) -> List[int]:
        total, out = 0, []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out

    def percentile(self, q: float) -> Optional[float]:
        """Exact q-th percentile (``q`` in [0, 100]) of all observations,
        or ``None`` when nothing was observed."""
        if not self._values:
            return None
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        index = max(0, math.ceil(q / 100.0 * len(self._values)) - 1)
        return self._ordered()[index]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Requires identical bucket edges (merging differently bucketed
        histograms would silently misattribute counts).  The raw
        observations are pooled, so exact percentiles keep working on
        the combined population.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: bucket mismatch "
                f"{other.buckets} vs {self.buckets}"
            )
        self.bucket_counts = [
            mine + theirs
            for mine, theirs in zip(self.bucket_counts, other.bucket_counts)
        ]
        self.sum += other.sum
        self._values = self._values + other._values
        self._sorted = False

    @property
    def values(self) -> Tuple[float, ...]:
        """All observations, sorted ascending."""
        return tuple(self._ordered())

    def samples(self) -> Iterator[Tuple[dict, float]]:
        for edge, cumulative in zip(self.buckets, self.cumulative_counts()):
            yield {"le": edge}, cumulative


Metric = Union[CounterMetric, Gauge, Histogram, CounterVec, GaugeVec]


class MetricsRegistry:
    """Named metrics with get-or-create registration.  Every metric
    holds its current value: counters count when their event happens,
    so a read has nothing to bring up to date."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric
        metric = cls(name, *args)
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> CounterMetric:
        return self._get_or_create(name, CounterMetric, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, help, buckets)

    def counter_vec(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterVec:
        return self._get_or_create(name, CounterVec, help, labelnames)

    def gauge_vec(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeVec:
        return self._get_or_create(name, GaugeVec, help, labelnames)

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of *other* into this registry.

        Counters (scalar and labelled) and histograms accumulate;
        gauges take the incoming snapshot's value.  Metrics absent here
        are adopted with *other*'s type and metadata.  This is the
        reduction the sharded experiment runner applies, in shard
        order, to produce one registry for a whole parallel sweep —
        merging is associative for counters/histograms, and shard order
        is fixed by the spec list, so the merged exposition is
        deterministic for any worker count.
        """
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = self.histogram(name, theirs.help, theirs.buckets)
                elif isinstance(theirs, (CounterVec, GaugeVec)):
                    mine = self._get_or_create(
                        name, type(theirs), theirs.help, theirs.labelnames
                    )
                else:
                    mine = self._get_or_create(name, type(theirs), theirs.help)
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge metric {name!r}: "
                    f"{type(theirs).__name__} into {type(mine).__name__}"
                )
            mine.merge(theirs)

    # ------------------------------------------------------------------
    # JSON wire form (cluster scrapes)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot of every metric, in exposition order.

        Inverse of :meth:`from_dict`; infinite bucket edges are spelled
        ``"+Inf"`` because JSON has no ``inf`` literal."""
        out: Dict[str, dict] = {}
        for metric in self.metrics():
            entry: dict = {"kind": type(metric).__name__, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = [_edge_to_json(b) for b in metric.buckets]
                entry["values"] = list(metric.values)
                entry["sum"] = metric.sum
            elif isinstance(metric, (CounterVec, GaugeVec)):
                entry["labelnames"] = list(metric.labelnames)
                entry["items"] = [
                    [list(key) if isinstance(key, tuple) else [key], value]
                    for key, value in sorted(
                        metric.items(), key=lambda kv: str(kv[0])
                    )
                ]
            else:
                entry["value"] = metric.value
            out[metric.name] = entry
        return {"metrics": out}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, entry in sorted(data.get("metrics", {}).items()):
            kind = entry["kind"]
            help_ = entry.get("help", "")
            if kind == "Histogram":
                buckets = tuple(_edge_from_json(b) for b in entry["buckets"])
                histogram = registry.histogram(name, help_, buckets)
                for value in entry["values"]:
                    histogram.observe(value)
                histogram.sum = float(entry.get("sum", histogram.sum))
            elif kind in ("CounterVec", "GaugeVec"):
                vec_cls = CounterVec if kind == "CounterVec" else GaugeVec
                vec = registry._get_or_create(
                    name, vec_cls, help_, tuple(entry["labelnames"])
                )
                for key_list, value in entry["items"]:
                    key = key_list[0] if len(key_list) == 1 else tuple(key_list)
                    vec[key] = value
            elif kind == "CounterMetric":
                registry.counter(name, help_).value = entry["value"]
            elif kind == "Gauge":
                registry.gauge(name, help_).value = entry["value"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
        return registry

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> List[Metric]:
        """All registered metrics, sorted by name (exposition order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]


def count_error(registry: MetricsRegistry, site: str) -> None:
    """Count one exception a handler caught and survived at *site* into
    ``repro_errors_total`` — the number every run asserts is zero.  A
    handler that keeps a link or an endpoint up must still leave a
    number behind, not only an event."""
    registry.counter_vec(
        "repro_errors_total",
        "Exceptions caught and survived, by site.",
        ("site",),
    )[site] += 1
