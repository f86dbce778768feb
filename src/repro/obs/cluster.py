"""Cluster-wide observability: scrape, merge, stitch, summarize.

A realistic deployment of the socket runtime gives every node its own
telemetry island (:class:`~repro.net.clock.ClockScope`): a private
metrics registry and span tracker, exactly what a separate OS process
would hold.  Events are not islanded: every scope emits into the
cluster's one log, which the scrape carries once, in emission order.
This module rebuilds the whole-cluster view from those islands, the
way a fleet monitoring plane would:

* :class:`ClusterScraper` polls a running cluster's admin endpoint
  (the newline-JSON protocol of :class:`~repro.net.cluster.LocalCluster`)
  with the ``status`` / ``telemetry`` / ``spans`` / ``eventlog``
  commands and parses the JSON wire forms back into real objects;
  :func:`scrape_local` takes the identical route — through the same
  JSON payload — against an in-process cluster object, so the two paths
  cannot drift.
* :class:`TelemetryAggregator` folds the scrape into one
  :class:`ClusterView`: per-node registries merge through
  :meth:`~repro.obs.registry.MetricsRegistry.merge` in sorted node
  order (deterministic for a given cluster state), per-node span tables
  are renumbered into one tracker, and **cross-node traces are
  stitched**: each ``hop`` placeholder span (recorded by the receiving
  :class:`~repro.net.runtime.NodeRuntime` with the sender's span
  coordinates from the frame ``_meta`` sidecar) adopts the sender's
  span (its ``report``, or the ``interval`` a leaf forwarded), reconnecting alarm → … → leaf-interval chains across
  process boundaries so ``render_tree`` explains an alarm end to end.

The aggregator also *recomputes* the cluster truths no single island
can know:

* ``repro_cluster_detection_latency_seconds`` — per-alarm wall latency
  measured over the stitched trace (a root node alone only sees its own
  leaf intervals, so its local histogram is a lower-bound view);
* ``repro_cluster_realized_alpha`` — the per-level detection ratio
  (solutions emitted at a level / intervals entering that level's
  queues), the socket-plane analogue of the simulator's
  ``repro_level_realized_alpha``;
* cross-node alarm counts and liveness gauges.

Everything here is pure :mod:`repro.obs` — the module never imports
:mod:`repro.net`; the cluster hands over plain JSON-safe payloads.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .registry import MetricsRegistry
from .spans import Span, SpanTracker
from .telemetry import Telemetry

__all__ = [
    "NodeScrape",
    "ClusterScrape",
    "ClusterView",
    "ClusterScraper",
    "TelemetryAggregator",
    "scrape_local",
    "render_epoch_table",
    "CLUSTER_LATENCY_BUCKETS",
]

#: Wall-second buckets for the recomputed cluster detection latency —
#: localhost alarms land around milliseconds, the tail covers
#: repair-interrupted detections.
CLUSTER_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, math.inf,
)


# ----------------------------------------------------------------------
# scrape shapes
# ----------------------------------------------------------------------
@dataclass
class NodeScrape:
    """One node's telemetry island, as scraped."""

    node: int
    alive: bool
    level: Optional[int]
    registry: MetricsRegistry
    spans: List[dict] = field(default_factory=list)


@dataclass
class ClusterScrape:
    """Everything one poll of a cluster returned."""

    status: dict
    nodes: Dict[int, NodeScrape] = field(default_factory=dict)
    cluster_registry: Optional[MetricsRegistry] = None
    #: The cluster log (wire form), in emission order.
    events: List[dict] = field(default_factory=list)
    #: The epoch ledger payload (``EpochLedger.to_dict`` + watchdog
    #: state) — ``None`` when the cluster runs without a load session
    #: or predates the ``epochs`` admin command.
    epochs: Optional[dict] = None

    @classmethod
    def from_payload(cls, payload: dict) -> "ClusterScrape":
        """Parse the JSON scrape payload (admin wire form; also what
        :func:`scrape_local` consumes — one format, two transports)."""
        status = payload.get("status", {})
        levels = {int(k): v for k, v in (status.get("levels") or {}).items()}
        alive = set(status.get("alive", []))
        telemetry = payload.get("telemetry", {})
        spans = payload.get("spans", {})
        nodes: Dict[int, NodeScrape] = {}
        for key, registry_dict in (telemetry.get("nodes") or {}).items():
            pid = int(key)
            nodes[pid] = NodeScrape(
                node=pid,
                alive=pid in alive,
                level=levels.get(pid),
                registry=MetricsRegistry.from_dict(registry_dict),
                spans=list((spans.get("nodes") or {}).get(key, [])),
            )
        cluster_registry = None
        if telemetry.get("cluster") is not None:
            cluster_registry = MetricsRegistry.from_dict(telemetry["cluster"])
        return cls(
            status=status,
            nodes=nodes,
            cluster_registry=cluster_registry,
            events=list(payload.get("eventlog", {}).get("events") or []),
            epochs=payload.get("epochs") or None,
        )


def scrape_local(cluster) -> ClusterScrape:
    """Scrape an in-process cluster object (anything exposing
    ``scrape_payload()``) through the same JSON forms the admin
    endpoint serves."""
    return ClusterScrape.from_payload(
        json.loads(json.dumps(cluster.scrape_payload()))
    )


class ClusterScraper:
    """Admin-endpoint poller for a running cluster.

    Speaks the newline-delimited JSON protocol: one connection, five
    requests (``status``, ``telemetry``, ``spans``, ``eventlog``,
    ``epochs`` — the last tolerated missing on older clusters), one
    :class:`ClusterScrape` back.
    """

    #: StreamReader line limit — span/telemetry responses of a long run
    #: are far larger than asyncio's 64 KiB default.
    LINE_LIMIT = 64 * 1024 * 1024

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port

    async def scrape(self) -> ClusterScrape:
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=self.LINE_LIMIT
        )
        try:
            payload = {}
            for cmd in ("status", "telemetry", "spans", "eventlog", "epochs"):
                writer.write(json.dumps({"cmd": cmd}).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                if not response.get("ok"):
                    if cmd == "epochs":
                        # Older clusters don't serve the epoch ledger;
                        # a scrape without it is still a full scrape.
                        continue
                    raise RuntimeError(
                        f"admin {cmd!r} failed: {response.get('error')}"
                    )
                response.pop("ok", None)
                if cmd == "epochs":
                    payload["epochs"] = response.get("epochs")
                else:
                    payload[cmd] = response
            return ClusterScrape.from_payload(payload)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def scrape_sync(self) -> ClusterScrape:
        """Blocking convenience wrapper (CLI ``watch`` ticks)."""
        return asyncio.run(self.scrape())


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class TelemetryAggregator:
    """Fold a :class:`ClusterScrape` into one coherent view."""

    def fold(self, scrape: ClusterScrape) -> "ClusterView":
        merged = MetricsRegistry()
        for pid in sorted(scrape.nodes):
            merged.merge(scrape.nodes[pid].registry)
        if scrape.cluster_registry is not None:
            merged.merge(scrape.cluster_registry)
        spans, mapping = self._combine_spans(scrape)
        stitched = self._stitch(spans, mapping)
        view = ClusterView(
            registry=merged,
            spans=spans,
            events=scrape.events,
            status=scrape.status,
            nodes=scrape.nodes,
            stitched_hops=stitched,
            epochs=scrape.epochs,
        )
        self._publish_cluster_metrics(merged, view, scrape)
        return view

    # -- spans ---------------------------------------------------------
    @staticmethod
    def _combine_spans(
        scrape: ClusterScrape,
    ) -> Tuple[SpanTracker, Dict[Tuple[int, int], int]]:
        """One tracker over every node's table, sids renumbered in
        sorted node order; returns the (node, old sid) → new sid map
        the stitcher joins on."""
        tracker = SpanTracker()
        mapping: Dict[Tuple[int, int], int] = {}
        imported: List[Tuple[Span, int, dict]] = []
        new_sid = 0
        for pid in sorted(scrape.nodes):
            for row in scrape.nodes[pid].spans:
                mapping[(pid, int(row["sid"]))] = new_sid
                span = tracker.append_imported(row, sid=new_sid)
                imported.append((span, pid, row))
                new_sid += 1
        # Second pass: remap intra-node parent links (a parent's sid can
        # exceed its child's — alarms adopt earlier spans — so links can
        # only be resolved once the whole node table is loaded).
        for span, pid, row in imported:
            parent = row.get("parent")
            if parent is not None:
                remapped = mapping.get((pid, int(parent)))
                if remapped is not None:
                    tracker.reparent(span, remapped)
        return tracker, mapping

    @staticmethod
    def _stitch(
        tracker: SpanTracker, mapping: Dict[Tuple[int, int], int]
    ) -> int:
        """Join cross-node links: every ``hop`` placeholder adopts the
        sender-side span it stands for.  Returns the number of links
        made (first parent wins, as everywhere in the span model)."""
        stitched = 0
        for span in tracker.spans:
            if span.name != "hop":
                continue
            remote = (
                span.attrs.get("remote_node"),
                span.attrs.get("remote_sid"),
            )
            target_sid = mapping.get((int(remote[0]), int(remote[1]))) if (
                remote[0] is not None and remote[1] is not None
            ) else None
            if target_sid is None:
                continue
            target = tracker.by_sid(target_sid)
            if target is not None and target is not span:
                if tracker.reparent(target, span.sid):
                    stitched += 1
        return stitched

    # -- derived cluster metrics ---------------------------------------
    def _publish_cluster_metrics(
        self, merged: MetricsRegistry, view: "ClusterView", scrape: ClusterScrape
    ) -> None:
        latency = merged.histogram(
            "repro_cluster_detection_latency_seconds",
            "Wall seconds from the last solution interval's open to the "
            "alarm, measured over the stitched cross-node trace.",
            CLUSTER_LATENCY_BUCKETS,
        )
        for value in view.cluster_detection_latencies():
            latency.observe(value)
        alpha = merged.gauge_vec(
            "repro_cluster_realized_alpha",
            "Per-level detection ratio over the merged per-node counters "
            "(solutions emitted at the level / intervals entering its "
            "queues).",
            ("level",),
        )
        for level, value in sorted(view.alpha_by_level().items()):
            alpha[level] = round(value, 6)
        merged.gauge(
            "repro_cluster_nodes", "Nodes in the scraped cluster."
        ).set(len(scrape.nodes))
        merged.gauge(
            "repro_cluster_alive_nodes", "Nodes alive at scrape time."
        ).set(sum(1 for n in scrape.nodes.values() if n.alive))
        merged.gauge(
            "repro_cluster_cross_node_alarms",
            "Alarms whose stitched trace spans at least two nodes.",
        ).set(len(view.cross_node_alarms()))
        merged.gauge(
            "repro_cluster_stitched_hops",
            "Cross-node span links joined by the trace stitcher.",
        ).set(view.stitched_hops)
        summary = (scrape.epochs or {}).get("summary")
        if summary:
            for state in ("solved", "stranded", "expired", "in_flight"):
                merged.gauge(
                    f"repro_cluster_epochs_{state}",
                    f"Epochs {state.replace('_', ' ')} per the scraped "
                    "ledger.",
                ).set(summary.get(state, 0))


# ----------------------------------------------------------------------
# the folded view
# ----------------------------------------------------------------------
@dataclass
class ClusterView:
    """One coherent, cluster-wide observability snapshot."""

    registry: MetricsRegistry
    spans: SpanTracker
    #: The cluster log (wire form), in emission order.
    events: List[dict]
    status: dict
    nodes: Dict[int, NodeScrape]
    stitched_hops: int = 0
    #: The scraped epoch ledger payload, when the cluster served one.
    epochs: Optional[dict] = None

    @property
    def telemetry(self) -> Telemetry:
        """The merged view bundled as an ordinary :class:`Telemetry`,
        so every :mod:`repro.obs.export` writer applies unchanged."""
        bundle = Telemetry()
        bundle.registry = self.registry
        bundle.spans = self.spans
        return bundle

    # -- traces --------------------------------------------------------
    def alarms(self) -> List[Span]:
        return self.spans.alarms()

    def _trace_nodes(self, alarm: Span) -> Tuple[set, int]:
        nodes = set()
        leaf_intervals = 0
        for _, span in self.spans.walk(alarm):
            if span.node is not None:
                nodes.add(span.node)
            if span.name == "interval":
                leaf_intervals += 1
        return nodes, leaf_intervals

    def cross_node_alarms(self) -> List[Span]:
        """Alarms whose stitched explanation crosses ≥ 2 nodes *and*
        reaches concrete leaf intervals."""
        out = []
        for alarm in self.alarms():
            nodes, leaves = self._trace_nodes(alarm)
            if len(nodes) >= 2 and leaves > 0:
                out.append(alarm)
        return out

    def cluster_detection_latencies(self) -> List[float]:
        """Per-alarm wall latency over the stitched trace: alarm time
        minus the open of the newest leaf interval it explains."""
        out = []
        for alarm in self.alarms():
            opens = [
                span.start
                for _, span in self.spans.walk(alarm)
                if span.name == "interval"
            ]
            if opens:
                out.append(max(0.0, alarm.start - max(opens)))
        return out

    # -- per-level α ---------------------------------------------------
    def alpha_by_level(self) -> Dict[int, float]:
        """Realized per-level detection ratio from the merged counters.

        A level's "solutions" are the reports its non-root nodes sent up
        plus the alarms its (partition-)roots announced; opportunities
        are the intervals that entered the level's detection queues."""
        produced: Dict[int, float] = {}
        offered: Dict[int, float] = {}
        for pid, node in self.nodes.items():
            if node.level is None:
                continue
            registry = node.registry
            for name in ("repro_reports_total", "repro_alarms_total"):
                vec = registry.get(name)
                if vec is not None:
                    produced[node.level] = produced.get(node.level, 0.0) + sum(
                        vec.values()
                    )
            enqueued = registry.get("repro_detect_enqueued_total")
            if enqueued is not None:
                offered[node.level] = offered.get(node.level, 0.0) + sum(
                    enqueued.values()
                )
        return {
            level: (produced.get(level, 0.0) / offered[level])
            if offered.get(level)
            else 0.0
            for level in sorted(set(produced) | set(offered))
        }

    # -- live table ----------------------------------------------------
    def status_table(self) -> str:
        """The ``repro-cluster watch`` surface: one row per node from
        its own registry, a cluster summary underneath."""

        def node_count(registry: MetricsRegistry, name: str) -> int:
            vec = registry.get(name)
            return int(sum(vec.values())) if vec else 0

        header = (
            f"{'node':>4} {'lvl':>3} {'alive':>5} {'ivls':>6} {'alarms':>6} "
            f"{'reports':>7} {'reconn':>6} {'outbox':>6} {'stale':>5}"
        )
        lines = [header, "-" * len(header)]
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            registry = node.registry
            depth_vec = registry.get("repro_net_outbox_depth")
            depth = int(max(depth_vec.values(), default=0)) if depth_vec else 0
            lines.append(
                f"{pid:>4} {node.level if node.level is not None else '-':>3} "
                f"{'yes' if node.alive else 'DEAD':>5} "
                f"{node_count(registry, 'repro_intervals_total'):>6} "
                f"{node_count(registry, 'repro_alarms_total'):>6} "
                f"{node_count(registry, 'repro_reports_total'):>7} "
                f"{node_count(registry, 'repro_net_reconnects_total'):>6} "
                f"{depth:>6} "
                f"{node_count(registry, 'repro_net_stale_frames_total'):>5}"
            )
        alpha = self.alpha_by_level()
        alpha_text = (
            "  ".join(f"L{level}={alpha[level]:.2f}" for level in sorted(alpha))
            or "n/a"
        )
        status = self.status
        lines.append("")
        lines.append(
            f"detections={status.get('detections', '?')} "
            f"repairs={status.get('repairs', [])} "
            f"false_suspicions={status.get('false_suspicions', '?')} "
            f"uptime={status.get('uptime', '?')}s"
        )
        lines.append(
            f"alpha by level: {alpha_text}   "
            f"cross-node alarms: {len(self.cross_node_alarms())} "
            f"(stitched links: {self.stitched_hops})"
        )
        return "\n".join(lines)

    # -- epoch ledger --------------------------------------------------
    def epoch_table(self) -> str:
        """The ``repro-cluster watch --epochs`` surface: the ledger's
        accounting line, per-target queue watermarks and one row per
        stranded epoch naming which process's shed offer (or dead
        target) stranded it."""
        return render_epoch_table(self.epochs)

def render_epoch_table(payload: Optional[dict]) -> str:
    """Render an epoch-ledger payload (``EpochLedger.to_dict()`` shape,
    optionally with a ``watchdog`` block) as the human ledger view shared
    by ``repro-cluster watch --epochs`` and ``repro-trace epochs``."""
    summary = (payload or {}).get("summary")
    if payload is None or summary is None:
        return "no epoch ledger (cluster running without a load spec)"
    lines = [
        f"epochs: offered={summary.get('offered_epochs', 0)} "
        f"admitted={summary.get('admitted_epochs', 0)} "
        f"solved={summary.get('solved', 0)} "
        f"stranded={summary.get('stranded', 0)} "
        f"expired={summary.get('expired', 0)} "
        f"in_flight={summary.get('in_flight', 0)}"
    ]
    causes = summary.get("stranded_by_cause") or {}
    if causes:
        lines.append(
            "stranded by cause: "
            + "  ".join(f"{c}={n}" for c, n in sorted(causes.items()))
        )
    watchdog = payload.get("watchdog")
    if watchdog:
        state = "LATCHED" if watchdog.get("latched") else "armed"
        lines.append(
            f"stranding watchdog: {state} "
            f"(threshold={watchdog.get('threshold')})"
        )
    watermarks = summary.get("watermarks") or {}
    if watermarks:
        lines.append(
            "queue watermarks: "
            + "  ".join(
                f"P{t}:depth={m.get('depth', 0)},age={m.get('age_s', 0):.3g}s"
                for t, m in sorted(
                    watermarks.items(), key=lambda kv: int(kv[0])
                )
            )
        )
    detail = payload.get("stranded_detail") or []
    if detail:
        lines.append("")
        lines.append("stranded epochs:")
        for row in detail:
            culprits = []
            for shed in row.get("shed", []):
                target = shed.get("target")
                where = f"P{target}" if target is not None else "no target"
                culprits.append(f"shed@{where}({shed.get('reason')})")
            for gone in row.get("abandoned", []):
                culprits.append(
                    f"abandoned@P{gone.get('target')}({gone.get('reason')})"
                )
            lines.append(
                f"  epoch {row.get('epoch')}: cause={row.get('cause')} "
                f"admitted={row.get('admitted')}/{row.get('expected')} "
                f"completed={row.get('completed')} — "
                + ", ".join(culprits)
            )
        truncated = payload.get("stranded_detail_truncated", 0)
        if truncated:
            lines.append(f"  … and {truncated} more stranded epochs")
    return "\n".join(lines)
