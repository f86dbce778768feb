"""The simulated network: asynchronous, reliable, non-FIFO channels.

Channels follow the paper's model (Section II-A): message delivery is
asynchronous with unbounded, variable delay and *no* FIFO guarantee —
each message samples its own per-hop delay, so later messages can
overtake earlier ones.  Channels are reliable between live nodes;
messages to, from, or routed *through* a crashed node are dropped
(crash-stop failures, Section III-F).

Two delivery primitives:

* :meth:`Network.send` — one hop along an edge of the communication
  graph.  Used for application traffic between neighbours, hierarchical
  interval reports (always to the immediate parent) and heartbeats.
* :meth:`Network.send_routed` — hop-by-hop forwarding along an explicit
  route.  Used by the centralized baseline, whose reports must reach
  the sink across ``h - level`` hops; every hop increments the message
  counters, exactly the accounting of Eq. (12)–(14).

All message counts are recorded per plane/type for the experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple

import networkx as nx

from ..clocks.encoding import best_encoding, channel_reference
from .kernel import Simulator
from .messages import IntervalReport, payload_entries

__all__ = [
    "Network",
    "WireCodec",
    "DelayModel",
    "uniform_delay",
    "exponential_delay",
    "lognormal_delay",
    "distance_delay",
]

#: Samples a one-hop latency: ``(rng, src, dst) -> float``.
DelayModel = Callable[[object, int, int], float]


def uniform_delay(low: float = 0.5, high: float = 1.5) -> DelayModel:
    """Per-hop delay uniform in ``[low, high)`` — non-FIFO for high > low."""

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.uniform(low, high))

    return sample


def exponential_delay(mean: float = 1.0) -> DelayModel:
    """Memoryless per-hop delay (heavily non-FIFO)."""

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.exponential(mean))

    return sample


def lognormal_delay(median: float = 1.0, sigma: float = 0.5) -> DelayModel:
    """Heavy-tailed per-hop delay — the shape real RTT distributions
    take; occasional stragglers exercise the reorder buffers hard."""

    import math

    mu = math.log(median)

    def sample(rng, src: int, dst: int) -> float:
        return float(rng.lognormal(mu, sigma))

    return sample


def distance_delay(
    positions, *, propagation: float = 1.0, jitter: float = 0.2
) -> DelayModel:
    """Per-hop delay proportional to Euclidean distance plus jitter.

    For geometric (WSN) topologies whose nodes carry coordinates —
    pass ``nx.get_node_attributes(g, "pos")`` or any ``{node: (x, y)}``
    mapping.  Nodes without coordinates fall back to unit distance.
    """

    import math

    def sample(rng, src: int, dst: int) -> float:
        a, b = positions.get(src), positions.get(dst)
        if a is None or b is None:
            dist = 1.0
        else:
            dist = math.dist(a, b)
        return propagation * dist + float(rng.uniform(0, jitter))

    return sample


class WireCodec:
    """Adaptive timestamp compression for :class:`IntervalReport` wire
    accounting (Section IV's O(n)-per-message factor).

    Models a sender that picks the cheapest of raw / sparse /
    differential (:func:`repro.clocks.best_encoding`) for each of a
    report's two bounds, with the differential reference being the
    previous report sent on the same ``origin → dest`` channel — the
    Singhal–Kshemkalyani idealization (sender and receiver share the
    reference; reordering is resolved by ``transport_seq`` before the
    reference advances).

    Only the *entries* accounting changes: the simulator still delivers
    the original message object, so detection output is untouched, and
    pricing only counts components (:func:`~repro.clocks.encoding.pair_cost`)
    — no payload is ever built.  A report is priced **once**: the memo
    (a small LRU keyed by ``(origin, dest, transport_seq)``, holding the
    interval it priced so a recycled sequence number after a
    re-attachment can never hit) lets the centralized baseline's
    hop-by-hop forwarding charge every hop without re-pricing at each.
    """

    __slots__ = ("_refs", "_memo", "_memo_capacity", "encoded_reports", "memo_hits")

    def __init__(self, memo_capacity: int = 4096) -> None:
        self._refs: Dict[Tuple[int, int], tuple] = {}
        self._memo: OrderedDict = OrderedDict()
        self._memo_capacity = memo_capacity
        self.encoded_reports = 0
        self.memo_hits = 0

    def entries(self, message: IntervalReport) -> int:
        """Wire cost of *message* in integer entries (bounds + 2 ids + seq)."""
        interval = message.interval
        channel = (message.origin, message.dest)
        memo_key = (*channel, message.transport_seq)
        memo = self._memo
        cached = memo.get(memo_key)
        if cached is not None and cached[0] is interval:
            self.memo_hits += 1
            memo.move_to_end(memo_key)
            return cached[1]
        lo, hi = interval.lo, interval.hi
        lo_ref, hi_ref = self._refs.get(channel, (None, None))
        _, lo_cost = best_encoding(lo, channel_reference(lo_ref, lo))
        _, hi_cost = best_encoding(hi, channel_reference(hi_ref, hi))
        entries = lo_cost + hi_cost + 3
        self._refs[channel] = (lo, hi)
        memo[memo_key] = (interval, entries)
        if len(memo) > self._memo_capacity:
            memo.popitem(last=False)
        self.encoded_reports += 1
        return entries


class Network:
    """Message fabric over a communication graph.

    With ``wire_encoding=True``, :class:`IntervalReport` bandwidth is
    accounted through a :class:`WireCodec` (compressed entries) instead
    of :func:`payload_entries` (raw ``2n + 3``); all other counters and
    all delivery behavior are unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: nx.Graph,
        delay_model: Optional[DelayModel] = None,
        *,
        enforce_edges: bool = True,
        wire_encoding: bool = False,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.delay_model = delay_model or uniform_delay()
        self.enforce_edges = enforce_edges
        self.codec: Optional[WireCodec] = WireCodec() if wire_encoding else None
        self._handlers: Dict[int, Callable[[int, object, str], None]] = {}
        self._dead: set[int] = set()
        # Message counters live in the run's metrics registry
        # (repro.obs): Counter semantics are unchanged — each is a
        # collections.Counter — but the registry exposes them to the
        # Prometheus exporter and the repro-trace CLI for free.
        registry = sim.telemetry.registry
        self.sent = registry.counter_vec(
            "repro_net_sent_total",
            "Messages sent, hop-counted, by plane and message type.",
            ("plane", "type"),
        )
        self.sent_entries = registry.counter_vec(  # bandwidth, vector entries
            "repro_net_sent_entries_total",
            "Transmitted volume in vector entries, by plane and type.",
            ("plane", "type"),
        )
        self.delivered = registry.counter_vec(
            "repro_net_delivered_total",
            "Messages delivered to a live handler, by plane and type.",
            ("plane", "type"),
        )
        self.dropped = registry.counter_vec(
            "repro_net_dropped_total",
            "Messages dropped (dead node or no handler), by plane and type.",
            ("plane", "type"),
        )
        self.per_node_sent = registry.counter_vec(
            "repro_net_node_sent_total",
            "Messages sent per node, hop-counted.",
            ("node",),
        )

    # ------------------------------------------------------------------
    def attach(self, node_id: int, handler: Callable[[int, object, str], None]) -> None:
        """Register *handler(src, message, plane)* for deliveries to *node_id*."""
        self._handlers[node_id] = handler

    def fail(self, node_id: int) -> None:
        """Crash-stop *node_id*: it neither sends nor receives from now on."""
        self._dead.add(node_id)

    def revive(self, node_id: int) -> None:
        """Bring a crashed node back (see repro.fault.rejoin)."""
        self._dead.discard(node_id)

    def is_alive(self, node_id: int) -> bool:
        return node_id not in self._dead

    def _delay(self, src: int, dst: int) -> float:
        return self.delay_model(self.sim.rng("net"), src, dst)

    def _check_edge(self, src: int, dst: int) -> None:
        if self.enforce_edges and not self.graph.has_edge(src, dst):
            raise ValueError(f"no communication link between {src} and {dst}")

    def _key(self, plane: str, message: object) -> tuple:
        return (plane, type(message).__name__)

    def _entries(self, message: object) -> int:
        if self.codec is not None and isinstance(message, IntervalReport):
            return self.codec.entries(message)
        return payload_entries(message)

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: object, plane: str = "app") -> None:
        """One-hop send along an edge (counts one message)."""
        self._check_edge(src, dst)
        key = self._key(plane, message)
        if src in self._dead:
            return
        self.sent[key] += 1
        self.sent_entries[key] += self._entries(message)
        self.per_node_sent[src] += 1
        delay = self._delay(src, dst)

        def deliver() -> None:
            if dst in self._dead or src in self._dead:
                self.dropped[key] += 1
                return
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped[key] += 1
                return
            self.delivered[key] += 1
            handler(src, message, plane)

        self.sim.schedule(delay, deliver)

    def send_routed(
        self, route: Sequence[int], message: object, plane: str = "control"
    ) -> None:
        """Forward *message* hop-by-hop along *route* (``route[0]`` is the
        sender, ``route[-1]`` the destination).  Each hop is one message;
        a dead node anywhere on the path silently drops it."""
        if len(route) < 2:
            raise ValueError("route needs at least two nodes")
        self._advance(list(route), 0, message, plane)

    def _advance(self, route: list, hop: int, message: object, plane: str) -> None:
        src, dst = route[hop], route[hop + 1]
        self._check_edge(src, dst)
        key = self._key(plane, message)
        if src in self._dead:
            self.dropped[key] += 1
            return
        self.sent[key] += 1
        self.sent_entries[key] += self._entries(message)
        self.per_node_sent[src] += 1
        delay = self._delay(src, dst)

        def deliver() -> None:
            if dst in self._dead:
                self.dropped[key] += 1
                return
            if hop + 2 == len(route):
                handler = self._handlers.get(dst)
                if handler is None:
                    self.dropped[key] += 1
                    return
                self.delivered[key] += 1
                handler(route[0], message, plane)
            else:
                self._advance(route, hop + 1, message, plane)

        self.sim.schedule(delay, deliver)

    # ------------------------------------------------------------------
    def messages_sent(self, plane: Optional[str] = None) -> int:
        """Total messages sent (hop count), optionally for one plane."""
        if plane is None:
            return sum(self.sent.values())
        return sum(v for (p, _t), v in self.sent.items() if p == plane)

    def bandwidth_entries(self, plane: Optional[str] = None) -> int:
        """Total transmitted volume in vector entries (hop-counted),
        optionally restricted to one plane."""
        if plane is None:
            return sum(self.sent_entries.values())
        return sum(v for (p, _t), v in self.sent_entries.items() if p == plane)
