"""Empirical metric collection for the experiments.

Aggregates, from a finished simulation, the three quantities Section IV
analyses — messages, space, time — plus the realized per-level
aggregation probability α:

* **messages**: hop-counted control-plane sends, from the network's
  counters (every forwarded hop of a routed report counts once, per the
  paper's "a message that traverses h hops … is equivalent to h
  point-to-point messages");
* **space**: peak queued intervals per node, in intervals and in vector
  entries (each interval stores two length-``n`` timestamps);
* **time**: vector-timestamp comparisons executed per node (each is
  ``O(n)`` work — the unit of the paper's time bounds);
* **α (realized)**: per tree level, the ratio of solutions detected to
  detection opportunities (interval batches received), the empirical
  counterpart of the paper's abstract α parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..sim.network import Network
from ..topology.spanning_tree import SpanningTree

__all__ = ["NodeMetrics", "RunMetrics", "collect_hierarchical", "collect_centralized"]


@dataclass
class NodeMetrics:
    pid: int
    level: int
    comparisons: int
    detections: int
    peak_queue_intervals: int
    messages_sent: int


@dataclass
class RunMetrics:
    """Aggregated measurements of one simulation run.

    Instances are plain data — picklable by construction — because the
    sharded experiment runner ships them across process boundaries and
    folds them back together with :meth:`merge`.  ``level_detections`` /
    ``level_offers`` keep the per-level α numerators and denominators so
    a merge can recompute ``realized_alpha_by_level`` exactly instead of
    averaging averages.
    """

    control_messages: int
    app_messages: int
    per_node: List[NodeMetrics] = field(default_factory=list)
    root_detections: int = 0
    realized_alpha_by_level: Dict[int, float] = field(default_factory=dict)
    level_detections: Dict[int, int] = field(default_factory=dict)
    level_offers: Dict[int, int] = field(default_factory=dict)

    @property
    def total_comparisons(self) -> int:
        return sum(m.comparisons for m in self.per_node)

    @property
    def max_comparisons_per_node(self) -> int:
        return max((m.comparisons for m in self.per_node), default=0)

    @property
    def max_queue_per_node(self) -> int:
        return max((m.peak_queue_intervals for m in self.per_node), default=0)

    @property
    def total_peak_queue(self) -> int:
        return sum(m.peak_queue_intervals for m in self.per_node)

    def merge(self, other: "RunMetrics") -> None:
        """Fold another run's measurements into this one.

        Message/detection counters add; per-node rows concatenate (the
        pid space of different shards may overlap — rows are kept as
        recorded, one per (shard, node)); realized α is recomputed from
        the summed per-level detection/offer tallies.  Merging is
        associative and applied in shard order, so a parallel sweep's
        aggregate is identical for any worker count.
        """
        self.control_messages += other.control_messages
        self.app_messages += other.app_messages
        self.per_node.extend(other.per_node)
        self.root_detections += other.root_detections
        for level, value in other.level_detections.items():
            self.level_detections[level] = self.level_detections.get(level, 0) + value
        for level, value in other.level_offers.items():
            self.level_offers[level] = self.level_offers.get(level, 0) + value
        if self.level_offers:
            self.realized_alpha_by_level = {
                level: self.level_detections.get(level, 0) / offers
                for level, offers in self.level_offers.items()
                if offers
            }
        else:
            # A collector that tallies no per-level offers
            # (collect_centralized): keep whatever α maps the parts
            # carried.
            self.realized_alpha_by_level.update(other.realized_alpha_by_level)

    @classmethod
    def merged(cls, parts: Sequence["RunMetrics"]) -> "RunMetrics":
        """A fresh aggregate of *parts* (which are left untouched)."""
        total = cls(control_messages=0, app_messages=0)
        for part in parts:
            total.merge(part)
        return total

    def comparisons_gini(self) -> float:
        """Concentration of comparison work across nodes (0 = perfectly
        even, →1 = all at one node).  Demonstrates the "distributed
        across all processes" vs "at the sink" Table I distinction."""
        values = np.sort(np.array([m.comparisons for m in self.per_node], dtype=float))
        if values.size == 0 or values.sum() == 0:
            return 0.0
        n = values.size
        index = np.arange(1, n + 1)
        return float((2 * index - n - 1).dot(values) / (n * values.sum()))


def _report_messages(network: Network) -> int:
    """Hop-counted ``IntervalReport`` sends, read from the telemetry
    registry (the network registers its counters there)."""
    sent = network.sim.telemetry.registry.get("repro_net_sent_total")
    if sent is None:
        return 0
    return sum(
        count
        for (plane, mtype), count in sent.items()
        if plane == "control" and mtype == "IntervalReport"
    )


def _per_node_sent(network: Network) -> Dict[int, int]:
    vec = network.sim.telemetry.registry.get("repro_net_node_sent_total")
    return dict(vec) if vec is not None else {}


def _publish_level_metrics(
    registry,
    detections_by_level: Dict[int, int],
    opportunities_by_level: Dict[int, int],
    alpha_by_level: Dict[int, float],
) -> None:
    """Mirror the per-level aggregates into the registry so exporters
    see them.  Assignment (not ``+=``) keeps repeated collection of the
    same run idempotent."""
    det = registry.counter_vec(
        "repro_level_detections_total",
        "Solutions detected, summed over the nodes of each tree level.",
        ("level",),
    )
    off = registry.counter_vec(
        "repro_level_offers_total",
        "Intervals offered to detection cores, per tree level.",
        ("level",),
    )
    alpha = registry.gauge_vec(
        "repro_level_realized_alpha",
        "Realized aggregation probability α per tree level.",
        ("level",),
    )
    for level, value in detections_by_level.items():
        det[level] = value
    for level, value in opportunities_by_level.items():
        off[level] = value
    for level, value in alpha_by_level.items():
        alpha[level] = value


def collect_hierarchical(
    network: Network, tree: SpanningTree, roles: Dict[int, object]
) -> RunMetrics:
    """Metrics for a hierarchical run (*roles*: pid → HierarchicalRole)."""
    metrics = RunMetrics(
        control_messages=_report_messages(network),
        app_messages=network.messages_sent("app"),
    )
    per_node_sent = _per_node_sent(network)
    # Realized alpha per level: solutions / offers-from-children batches.
    detections_by_level: Dict[int, int] = {}
    opportunities_by_level: Dict[int, int] = {}
    for pid, role in roles.items():
        core = role.core
        if core is None:
            continue
        level = tree.level(pid) if pid in tree.parent else 0
        metrics.per_node.append(
            NodeMetrics(
                pid=pid,
                level=level,
                comparisons=core.stats.comparisons,
                detections=core.stats.detections,
                peak_queue_intervals=core.peak_queue_space(),
                messages_sent=per_node_sent.get(pid, 0),
            )
        )
        if role.parent_id is None:
            metrics.root_detections += len(role.detections)
        detections_by_level[level] = (
            detections_by_level.get(level, 0) + core.stats.detections
        )
        opportunities_by_level[level] = (
            opportunities_by_level.get(level, 0) + core.stats.offers
        )
    for level, opportunities in opportunities_by_level.items():
        if opportunities:
            metrics.realized_alpha_by_level[level] = (
                detections_by_level.get(level, 0) / opportunities
            )
    metrics.level_detections = dict(detections_by_level)
    metrics.level_offers = dict(opportunities_by_level)
    _publish_level_metrics(
        network.sim.telemetry.registry,
        detections_by_level,
        opportunities_by_level,
        metrics.realized_alpha_by_level,
    )
    return metrics


def collect_centralized(
    network: Network, tree: SpanningTree, sink_role, reporter_pids: List[int]
) -> RunMetrics:
    """Metrics for a centralized-baseline run."""
    metrics = RunMetrics(
        control_messages=_report_messages(network),
        app_messages=network.messages_sent("app"),
    )
    per_node_sent = _per_node_sent(network)
    core = sink_role.core
    sink_pid = sink_role.process.pid
    metrics.per_node.append(
        NodeMetrics(
            pid=sink_pid,
            level=tree.level(sink_pid),
            comparisons=core.stats.comparisons,
            detections=core.stats.detections,
            peak_queue_intervals=core.peak_queue_space(),
            messages_sent=per_node_sent.get(sink_pid, 0),
        )
    )
    metrics.root_detections = len(sink_role.detections)
    for pid in reporter_pids:
        metrics.per_node.append(
            NodeMetrics(
                pid=pid,
                level=tree.level(pid),
                comparisons=0,  # reporters do no detection work
                detections=0,
                peak_queue_intervals=0,
                messages_sent=per_node_sent.get(pid, 0),
            )
        )
    return metrics
