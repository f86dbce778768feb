"""One tree node of the socket runtime.

A :class:`NodeRuntime` is the network-world analogue of a
:class:`~repro.sim.process.MonitoredProcess`, reduced to what the
detection layer actually requires of its host: ``pid``, a ``sim``-shaped
clock handle, and ``send_control``.  It binds an **unmodified**
:class:`~repro.detect.HierarchicalRole` — queues, aggregation,
heartbeats, repair hooks and all — and plugs its control plane into a
:class:`~repro.net.transport.Transport` instead of the simulated
network.

Local intervals arrive through :meth:`offer_local` (driven by a
workload script or a live predicate source) and get the same span +
counter bookkeeping the simulator's process layer does, so the
interval → report → alarm trace reads identically in both worlds.

At-least-once delivery is absorbed here: after a TCP reconnect the
transport may replay the in-flight report, and the role's
:class:`~repro.intervals.queues.ReorderBuffer` rejects it by
``transport_seq`` with a ``ValueError``.  That is a correct, expected
outcome on this plane, so the runtime catches it, counts it under
``repro_net_stale_frames_total`` and moves on — the role itself stays
byte-identical to the simulated one.

Cross-node trace stitching
--------------------------
When each node owns a private span tracker (a
:class:`~repro.net.clock.ClockScope` — the realistic deployment shape),
the causal chain interval → report → alarm breaks at every TCP hop: the
sender's ``report`` span lives in the sender's tracker, invisible to
the receiver.  The runtime repairs this at the transport boundary:

* outbound ``IntervalReport`` frames carry the sender's span id for the
  reported interval in the frame's ``_meta`` sidecar, and nothing else
  (``{"span": [node, sid]}``): its ``report`` span for an aggregate,
  its ``interval`` span for a forwarded one-interval solution;
* on receipt, if the interval's span key is unknown locally (or names
  a hop for another sender span — a dead incarnation's), a ``hop``
  placeholder span is recorded under that key, holding the remote
  ``(node, sid)`` coordinates.  The receiving role's ordinary adoption
  then parents the *hop* span, and the cluster aggregator
  (:mod:`repro.obs.cluster`) later re-parents the sender's span
  beneath the hop — reconnecting the trace across process boundaries.

Peer-death evidence
-------------------
The transport reports a peer it holds proof is gone (a refused redial,
a hub detach — see :mod:`repro.net.transport`); the runtime hands that
to the role's :class:`~repro.fault.HeartbeatMonitor`, which suspects
the peer through the same path a heartbeat timeout takes.  A killed
node ignores the reports, exactly as it ignores inbound frames.

With a shared tracker the key is already registered, so no hop spans
appear and behavior is byte-identical to the pre-scope runtime.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..detect.roles import DetectionRecord, HierarchicalRole
from ..intervals import Interval
from ..obs.spans import interval_key
from ..sim.messages import IntervalReport
from .transport import Transport

__all__ = ["NodeRuntime"]


class NodeRuntime:
    """Host one :class:`HierarchicalRole` on a transport.

    Parameters mirror the role's constructor; ``heartbeat`` accepts the
    same ``(period, timeout)`` tuple / :class:`~repro.monitor.spec.HeartbeatSpec`
    the simulator path takes, but here the periods are **wall seconds**.
    """

    def __init__(
        self,
        node_id: int,
        transport: Transport,
        clock,
        *,
        parent: Optional[int],
        children: Sequence[int],
        level: Optional[int] = None,
        heartbeat=None,
        coordinator=None,
        on_detection: Optional[Callable[[DetectionRecord], None]] = None,
        on_subtree_solution=None,
    ) -> None:
        self.pid = node_id
        self.sim = clock  # the role-facing name for the clock handle
        self.transport = transport
        self.alive = True
        registry = clock.telemetry.registry
        self._count_interval = registry.counter_vec(
            "repro_intervals_total", "Local intervals produced, per node.", ("node",)
        ).handle(node_id)
        self._count_stale = registry.counter_vec(
            "repro_net_stale_frames_total",
            "Frames dropped as stale: duplicates rejected by reorder "
            "buffers after reconnects, and reports from a node that is "
            "no longer a child.",
            ("node",),
        ).handle(node_id)
        self.role = HierarchicalRole(
            parent,
            children,
            heartbeat=heartbeat,
            coordinator=coordinator,
            on_detection=on_detection,
            on_subtree_solution=on_subtree_solution,
            level=level,
        )
        self.role.bind(self)
        transport.set_receiver(self._on_message)
        transport.set_peer_down_handler(self._on_peer_down)

    # ------------------------------------------------------------------
    # the MonitoredProcess surface the role needs
    # ------------------------------------------------------------------
    def send_control(self, dst: int, message: object) -> None:
        if not self.alive:
            return
        self.transport.send(dst, message, self._span_meta(message))

    def _span_meta(self, message: object) -> Optional[dict]:
        """Frame sidecar for trace stitching: the local span coordinates
        of an outbound report's interval (see module docstring) — the
        whole packed sidecar (:mod:`repro.net.codec`)."""
        if not isinstance(message, IntervalReport):
            return None
        sid = self.sim.telemetry.spans.sid_of(interval_key(message.interval))
        if sid is None:
            return None
        return {"span": [self.pid, sid]}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Start the role (arms heartbeats).  Call once the transport is
        up and the peer map installed."""
        self.role.on_start()

    def kill(self, *, reason: str = "crash") -> None:
        """Crash-stop this node: stop producing, sending and receiving.
        The transport is torn down separately (:meth:`shutdown`) so a
        ``kill-node`` admin command stays synchronous.

        ``reason`` is the emitted event kind — ``crash`` for a real
        crash-stop (the event ``repro-cluster postmortem`` reports),
        ``node_stopped`` for the graceful-teardown path, so a clean
        shutdown never reads as a fleet-wide crash in postmortems."""
        if not self.alive:
            return
        self.alive = False
        self.role.on_crash()
        self.sim.emit(reason, node=self.pid)

    async def shutdown(self) -> None:
        """Graceful teardown: stop the node, then close its sockets."""
        self.kill(reason="node_stopped")
        await self.transport.stop()

    # ------------------------------------------------------------------
    # local interval ingestion
    # ------------------------------------------------------------------
    def offer_local(self, interval: Interval, opened_at: Optional[float] = None) -> None:
        """Feed one locally produced interval to the detector, with the
        same span/counter bookkeeping the simulator's process layer
        performs at interval close."""
        if not self.alive:
            return
        now = self.sim.now
        self.sim.telemetry.spans.record_interval(
            interval,
            opened_at if opened_at is not None else now,
            now,
            self.pid,
        )
        self._count_interval()
        self.role.on_local_interval(interval)

    # ------------------------------------------------------------------
    # inbound dispatch
    # ------------------------------------------------------------------
    def _on_peer_down(self, peer: int) -> None:
        if self.alive and self.role.monitor is not None:
            self.role.monitor.peer_down(peer)

    def _on_message(self, src: int, message: object, meta: Optional[dict] = None) -> None:
        if not self.alive:
            return
        if isinstance(message, IntervalReport) and not self.role.has_child(src):
            # Decoded after repair removed the sender's queue (a dead
            # child's last frames can outlive it in a socket buffer).
            self._stale(src, f"report from {src}, which is not a child")
            return
        if meta is not None:
            self._record_hop(src, message, meta)
        try:
            self.role.on_control_message(src, message)
        except ValueError as exc:
            # Reorder buffers reject replayed transport_seqs after a
            # reconnect — that's the at-least-once tax, not a fault.
            self._stale(src, str(exc))

    def _stale(self, src: int, error: str) -> None:
        self._count_stale()
        self.sim.emit("net_stale_frame", node=self.pid, src=src, error=error)

    def _record_hop(self, src: int, message: object, meta: dict) -> None:
        """Register the received interval under its span key as a
        ``hop`` placeholder carrying the sender's span coordinates.

        No-op when the key already names this artifact — either the
        tracker is shared (the sender's span is right there) or this is
        an at-least-once redelivery of a frame we already hopped.  A hop
        under the same key for a *different* sender span is a dead
        incarnation's: a reborn detector numbers its aggregates from 0
        again, so the sender's span coordinates, not the key, tell the
        two apart, and the new hop takes the key."""
        remote = meta.get("span")
        if not (isinstance(message, IntervalReport) and isinstance(remote, list)):
            return
        remote_node, remote_sid = int(remote[0]), int(remote[1])
        spans = self.sim.telemetry.spans
        key = interval_key(message.interval)
        known = spans.lookup(key)
        if known is not None:
            _, name, attrs = known
            if name != "hop" or (attrs["remote_node"], attrs["remote_sid"]) == (
                remote_node,
                remote_sid,
            ):
                return
        now = self.sim.now
        spans.record(
            "hop",
            now,
            now,
            node=self.pid,
            key=key,
            src=src,
            remote_node=remote_node,
            remote_sid=remote_sid,
            seq=message.interval.seq,
        )
