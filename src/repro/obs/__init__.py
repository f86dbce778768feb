"""Unified telemetry: metrics registry, causal spans, run exporters.

``repro.obs`` is the observability layer of the stack.  Every
:class:`~repro.sim.kernel.Simulator` owns a :class:`Telemetry`
(``sim.telemetry``) bundling a :class:`MetricsRegistry` and a
:class:`SpanTracker`; the network fabric, detector roles and heartbeat
monitors record into it, and :mod:`repro.obs.export` renders finished
runs as JSONL, Prometheus text or Chrome trace-event JSON.  The
``repro-trace`` CLI (:mod:`repro.obs.cli`) drives all of it from the
terminal.

See ``docs/observability.md`` for metric names, the span schema and
exporter formats, and ``docs/cluster-observability.md`` for the
cluster plane: :mod:`repro.obs.cluster` (scraping, registry merging,
cross-node trace stitching) and :func:`postmortem`, which reads a run's
JSONL event dump back as its crash → repair → recovery story.
"""

from .cluster import (
    ClusterScrape,
    ClusterScraper,
    ClusterView,
    NodeScrape,
    TelemetryAggregator,
    scrape_local,
)
from .epochs import (
    EPOCH_DWELL_BUCKETS,
    EPOCH_STAGES,
    EPOCH_TERMINAL_STATES,
    STRANDING_CAUSES,
    EpochLedger,
    StrandingWatchdog,
)
from .export import (
    chrome_trace,
    event_dict,
    eventlog_to_jsonl,
    load_events,
    postmortem,
    prometheus_text,
    render_postmortem,
    write_chrome_trace,
)
from .registry import (
    DEFAULT_BUCKETS,
    CounterMetric,
    CounterVec,
    Gauge,
    GaugeVec,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, SpanTracker, interval_key
from .telemetry import LATENCY_BUCKETS, Telemetry

__all__ = [
    "ClusterScrape",
    "ClusterScraper",
    "ClusterView",
    "CounterMetric",
    "CounterVec",
    "DEFAULT_BUCKETS",
    "EPOCH_DWELL_BUCKETS",
    "EPOCH_STAGES",
    "EPOCH_TERMINAL_STATES",
    "EpochLedger",
    "Gauge",
    "GaugeVec",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NodeScrape",
    "STRANDING_CAUSES",
    "Span",
    "SpanTracker",
    "StrandingWatchdog",
    "Telemetry",
    "TelemetryAggregator",
    "chrome_trace",
    "event_dict",
    "eventlog_to_jsonl",
    "interval_key",
    "load_events",
    "postmortem",
    "prometheus_text",
    "render_postmortem",
    "scrape_local",
    "write_chrome_trace",
]
