"""The per-run telemetry bundle: one registry + one span tracker.

Every :class:`~repro.sim.kernel.Simulator` owns a :class:`Telemetry`
(``sim.telemetry``), so everything wired to the same simulation — the
network, the detector roles, the heartbeat monitors — shares one
registry and one span tracker, and a finished run can be exported as a
whole (see :mod:`repro.obs.export`).  The two are independent: the
tracker holds the causal record, the registry the counts, and a layer
that records an artifact counts it in the same call.

This module must not import :mod:`repro.sim` — the kernel imports it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .registry import Histogram, MetricsRegistry
from .spans import SpanTracker

__all__ = ["Telemetry", "LATENCY_BUCKETS"]

#: Detection-latency buckets in simulated time units.  One-hop delays
#: default to ~1 unit, so these cover single-hop reports through deep
#: trees with slow heartbeat-driven repairs.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, math.inf,
)


class Telemetry:
    """Everything one run records about itself."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanTracker()

    @property
    def detection_latency(self) -> Histogram:
        """The headline histogram: simulated time from the last solution
        interval's open to the ``Definitely(Φ)`` announcement."""
        return self.registry.histogram(
            "repro_detection_latency",
            "Simulated time from last solution interval open to alarm.",
            LATENCY_BUCKETS,
        )

    def latency_percentiles(
        self, qs: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> List[Tuple[float, Optional[float]]]:
        """``[(q, value), …]`` over the detection-latency histogram."""
        histogram = self.detection_latency
        return [(q, histogram.percentile(q)) for q in qs]
