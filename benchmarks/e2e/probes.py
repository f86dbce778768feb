"""Small measurement helpers shared by the live and the sim repetition."""

from __future__ import annotations

import contextlib
import resource
import statistics
import struct
import time
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from . import trace


def spin_ms() -> float:
    """A fixed 100k-iteration pure-Python loop, timed: how fast the box
    is *right now*.  Reported next to the metrics, never used to rescale
    one (the loop is register-bound, the cluster is cache-bound)."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i & 7
    return (time.perf_counter() - start) * 1e3


class Calibrator:
    """How fast is the box while the window is being measured?

    This VM's speed drifts by 10-25% over minutes, and CPU cost, latency
    and saturated throughput all follow it (p50 latency / CPU per epoch
    stayed within 2.5% while both moved 20%).  The calibrator runs a
    fixed kernel of the same kind of work the cluster does (tuple-keyed
    dicts, small lists, 7-wide numpy reductions, struct packing — no
    repo code, so no change under test can move it) every
    ``PERIOD_S`` through the window and times it on the CPU clock.
    Durations measured in the window are reported at reference speed:
    multiplied by ``REFERENCE_US / median kernel time``.
    """

    #: the kernel's CPU time on this box when it is quiet; the unit all
    #: window durations are converted to
    REFERENCE_US = 350.0
    PERIOD_S = 0.025

    def __init__(self) -> None:
        self.samples: List[Tuple[float, int]] = []  # (when, kernel cpu ns)
        self._a = np.arange(7, dtype=np.int64)
        self._b = self._a + 1

    def _kernel(self) -> None:
        a, b, table = self._a, self._b, {}
        for i in range(60):
            table[(i, i + 1)] = [i, i * 2]
            top = np.stack([a, b]).max(axis=0)
            (top <= b).all()
            struct.pack(">IIq", i, i, i)
            top.tobytes()

    def sample(self, when: float) -> None:
        start = time.process_time_ns()
        self._kernel()
        self.samples.append((when, time.process_time_ns() - start))

    def kernel_us(self, lo: float, hi: float) -> float:
        return statistics.median(ns for at, ns in self.samples if lo <= at < hi) / 1e3

    def cpu_s(self, lo: float, hi: float) -> float:
        """The kernel's own CPU time in the window (not the system's work)."""
        return sum(ns for at, ns in self.samples if lo <= at < hi) / 1e9

    def factor(self, lo: float, hi: float) -> float:
        """Multiply a window duration by this to get it at reference speed."""
        return self.REFERENCE_US / self.kernel_us(lo, hi)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; a layer that did no work reads 0."""
    return float(numerator) / float(denominator) if denominator else 0.0


@contextlib.contextmanager
def head_matrices():
    """Collect every :class:`~repro.clocks.compare.HeadMatrix` built
    inside the block, so ``refreshes`` can be read from the public
    counter without reaching through the cores' private fields."""
    from repro.clocks.compare import HeadMatrix

    built: List[HeadMatrix] = []
    original = HeadMatrix.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    HeadMatrix.__init__ = tracking_init
    try:
        yield built
    finally:
        HeadMatrix.__init__ = original


def core_totals(roles: Dict[int, object], root: int, matrices: Iterable) -> Dict[str, int]:
    """Sums of the detection cores' public counters over all nodes."""
    stats = {pid: role.core.stats for pid, role in roles.items()}
    return {
        "offers": sum(s.offers for s in stats.values()),
        "nonroot_offers": sum(s.offers for pid, s in stats.items() if pid != root),
        "comparisons": sum(s.comparisons for s in stats.values()),
        "pruned": sum(s.pruned_total for s in stats.values()),
        "detections": sum(s.detections for s in stats.values()),
        "refreshes": sum(m.refreshes for m in matrices),
    }


def detect_metrics(delta: Dict[str, int], reports: float, solved: int, roles) -> Dict[str, float]:
    """The count-based detect/intervals/clocks metrics from counter deltas."""
    return {
        "detect.core.pair_tests_per_offer": ratio(delta["comparisons"], delta["offers"]),
        "detect.core.prunes_per_solution": ratio(delta["pruned"], delta["detections"]),
        "detect.core.peak_queue_space": float(
            sum(role.core.peak_queue_space() for role in roles.values())
        ),
        "detect.reports_per_input": ratio(reports, delta["nonroot_offers"]),
        "intervals.aggregates_per_solved_epoch": ratio(delta["detections"], solved),
        "clocks.compare.refreshes_per_offer": ratio(delta["refreshes"], delta["offers"]),
    }


class LayerTimes:
    """Per-layer self time of a traced window, and the ledger's gap."""

    def __init__(self, tracer: trace.Tracer, lo_ns: int, hi_ns: int, cpu_s: float) -> None:
        self.table = trace.layer_table(tracer.names, tracer.spans, lo_ns, hi_ns)
        self.cpu_ns = cpu_s * 1e9
        self.attributed_ns = sum(cell[1] for cell in self.table.values())
        self.root_ns = trace.root_ns(tracer.spans, lo_ns, hi_ns)

    def calls(self, *names: str) -> int:
        return sum(c[0] for (_, name), c in self.table.items() if name in names)

    def self_ns(self, *names: str) -> int:
        return sum(c[1] for (_, name), c in self.table.items() if name in names)

    def layer_ns(self, layer: str) -> int:
        return sum(c[1] for (lay, _), c in self.table.items() if lay == layer)

    def us_per_call(self, *names: str, calls: float = 0) -> float:
        return ratio(self.self_ns(*names) / 1e3, calls or self.calls(*names))

    def by_layer_ms(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (layer, _), (_, own) in self.table.items():
            out[layer] = out.get(layer, 0.0) + own / 1e6
        return out

    def detect_durations(self) -> Dict[str, float]:
        """Self time per unit of work of the layers both planes share."""
        inputs = ("HierarchicalRole.on_local_interval", "HierarchicalRole.on_control_message")
        return {
            "detect.roles.self_us_per_input": self.us_per_call(*inputs),
            "detect.core.offer_self_us": self.us_per_call("RepeatedDetectionCore.offer"),
            "intervals.aggregate_self_us_per_call": self.us_per_call("aggregate"),
        }

    def close(self, result: dict, lo_ns: int, hi_ns: int) -> None:
        """Add the ledger's gap (``trace.unattributed_frac``) and what
        the closure check needs to a traced repetition's result."""
        result["metrics"]["trace.unattributed_frac"] = 1.0 - ratio(self.attributed_ns, self.cpu_ns)
        result["closure"] = {
            "window_cpu_ms": self.cpu_ns / 1e6,
            "layer_self_ms": self.attributed_ns / 1e6,
            "root_span_ms": self.root_ns / 1e6,
        }
        result["layer_self_ms"] = self.by_layer_ms()
        result["window_ns"] = [lo_ns, hi_ns]
