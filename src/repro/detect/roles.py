"""Control-plane roles: detector cores embedded in the simulation.

A role is the personality a :class:`~repro.sim.process.MonitoredProcess`
runs on the control plane:

* :class:`HierarchicalRole` — Algorithm 1 at one spanning-tree node:
  detects over its subtree, reports ``⊓`` of each solution one hop to
  its parent (a one-interval solution is forwarded unchanged),
  exchanges heartbeats, and rewires itself under the repair
  coordinator when the tree changes.
* :class:`CentralizedReporterRole` — the baseline's per-node half:
  forwards every local interval hop-by-hop to the sink.
* :class:`CentralizedSinkRole` — the baseline's sink ([12] repeated
  detection, or the one-shot Garg–Waldecker variant).

Roles communicate only through the simulated network; channels are
non-FIFO, so receivers run a per-sender
:class:`~repro.intervals.ReorderBuffer` keyed by transport sequence
numbers, which restart on every (re-)attachment epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..intervals import Interval, ReorderBuffer
from ..obs.spans import interval_key
from ..sim.messages import Heartbeat, IntervalReport
from ..sim.process import MonitoredProcess
from .base import Solution
from .centralized import CentralizedSinkCore
from .hierarchical import Emission, HierarchicalNodeCore

__all__ = [
    "DetectionRecord",
    "HierarchicalRole",
    "CentralizedReporterRole",
    "CentralizedSinkRole",
]


@dataclass(frozen=True)
class DetectionRecord:
    """One announced satisfaction of the (possibly partial) predicate."""

    time: float
    detector: int
    solution: Solution
    aggregate: Optional[Interval]

    @property
    def members(self) -> frozenset:
        """Processes whose local predicates this detection covers."""
        if self.aggregate is not None:
            return self.aggregate.members
        return self.solution.members


class HierarchicalRole:
    """Algorithm 1 node: subtree detection + reporting + fault handling.

    Parameters
    ----------
    parent:
        Initial parent in the spanning tree (``None`` for the root).
    children:
        Initial children.
    heartbeat:
        ``(period, timeout)`` or a
        :class:`~repro.monitor.HeartbeatSpec` to enable the Section
        III-F liveness protocol, or ``None`` to run without failure
        handling.
    coordinator:
        The :class:`~repro.fault.RepairCoordinator` to notify on
        suspected crashes.  Without one, a suspicion is handled locally:
        a dead child's queue is dropped and a dead parent makes this
        node the root of its own partition.
    level:
        This node's spanning-tree level (paper numbering: leaves are 1).
        Purely a telemetry label — spans and metrics carry it so the
        Chrome-trace exporter can lay processes out by level.  Kept at
        its initial value across repairs (it labels where work happened
        when the tree was built, not the live topology).
    """

    def __init__(
        self,
        parent: Optional[int],
        children: Sequence[int],
        *,
        heartbeat: Optional[tuple] = None,
        coordinator=None,
        on_detection=None,
        on_subtree_solution=None,
        level: Optional[int] = None,
    ) -> None:
        self.parent_id = parent
        self._init_children = list(children)
        self._heartbeat_cfg = heartbeat
        self.coordinator = coordinator
        self.on_detection = on_detection  # callback(DetectionRecord), root-level
        self.on_subtree_solution = on_subtree_solution  # callback(pid, Emission)
        self.level = level
        self.monitor = None
        self.detections: List[DetectionRecord] = []
        self.process: Optional[MonitoredProcess] = None
        self.core: Optional[HierarchicalNodeCore] = None
        self._extra_core_observers: List = []
        self._buffers: Dict[int, ReorderBuffer] = {}
        self._out_seq = 0
        self._pending: List[Emission] = []  # reports emitted while orphaned
        self._telemetry = None

    # ------------------------------------------------------------------
    # DetectorRole interface
    # ------------------------------------------------------------------
    def bind(self, process: MonitoredProcess) -> None:
        self.process = process
        self._telemetry = process.sim.telemetry
        registry = self._telemetry.registry
        self._c_enqueued = registry.counter_vec(
            "repro_detect_enqueued_total",
            "Intervals enqueued into detection queues, per node.",
            ("node",),
        )
        self._c_pruned = registry.counter_vec(
            "repro_detect_pruned_total",
            "Queue heads pruned, per node and reason.",
            ("node", "reason"),
        )
        self._c_reports = registry.counter_vec(
            "repro_reports_total",
            "Intervals reported to parents (⊓ of each subtree solution), per node.",
            ("node",),
        )
        self._c_alarms = registry.counter_vec(
            "repro_alarms_total",
            "Definitely(Phi) announcements, per (partition-)root node.",
            ("node",),
        )
        self._c_pair_tests = registry.counter_vec(
            "repro_core_pair_tests_total",
            "Logical head-pair comparisons performed by detection cores, "
            "per spanning-tree level (the unit of the paper's time "
            "analysis; counted whether answered from cache or not).",
            ("level",),
        )
        # Bound increment handles: label keys resolve once here instead
        # of on every event.  Each core lifecycle event maps to its span
        # mark label and its counter handle.
        pid = process.pid
        self._h_reports = self._c_reports.handle(pid)
        self._h_alarms = self._c_alarms.handle(pid)
        self._on_core_event = {
            "enqueue": ("enqueued", self._c_enqueued.handle(pid)),
            "prune_incompat": ("prune_incompat", self._c_pruned.handle((pid, "prune_incompat"))),
            "prune_solution": ("prune_solution", self._c_pruned.handle((pid, "prune_solution"))),
        }
        self._mark = self._telemetry.spans.mark_interval
        self.core = HierarchicalNodeCore(
            process.pid,
            self._init_children,
            is_root=self.parent_id is None,
            observer=self._observe_core,
            on_pair_tests=self._count_pair_tests,
        )
        for observer in self._extra_core_observers:
            self.core.add_observer(observer)
        self._buffers = {c: ReorderBuffer() for c in self._init_children}
        if self._heartbeat_cfg is not None:
            from ..fault.heartbeat import HeartbeatMonitor

            cfg = self._heartbeat_cfg
            # A (period, timeout) tuple or a monitor.spec.HeartbeatSpec
            # (duck-typed to keep detect free of a monitor import cycle).
            period, timeout = cfg.as_tuple() if hasattr(cfg, "as_tuple") else cfg
            self.monitor = HeartbeatMonitor(
                process.sim,
                process.pid,
                send=process.send_control,
                on_suspect=self._suspect,
                period=period,
                timeout=timeout,
            )
            for peer in self._init_children:
                self.monitor.add_peer(peer)
            if self.parent_id is not None:
                self.monitor.add_peer(self.parent_id)

    def add_core_observer(self, fn) -> None:
        """Chain an extra queue-lifecycle observer onto the detection
        core and keep it across core rebuilds (``rebirth`` replaces the
        core object) — how the epoch ledger's queue hooks stay attached
        for a node's whole life."""
        self._extra_core_observers.append(fn)
        if self.core is not None:
            self.core.add_observer(fn)

    def on_start(self) -> None:
        if self.monitor is not None:
            self.monitor.start()

    def on_crash(self) -> None:
        """Host process crashed: a dead node must not keep suspecting
        the peers that (correctly) stopped talking to it."""
        if self.monitor is not None:
            self.monitor.stop()

    def on_local_interval(self, interval: Interval) -> None:
        self._handle(self.core.offer_local(interval))

    def has_child(self, pid: int) -> bool:
        """Whether reports from *pid* are currently accepted."""
        return pid in self._buffers

    def on_control_message(self, src: int, message: object) -> None:
        if isinstance(message, IntervalReport):
            buffer = self._buffers.get(src)
            if buffer is None:
                return  # stale report from a node no longer our child
            for interval in buffer.push(message.transport_seq, message.interval):
                self._handle(self.core.offer_child(src, interval))
        elif isinstance(message, Heartbeat):
            if self.monitor is not None:
                self.monitor.beat_from(message.sender)

    # ------------------------------------------------------------------
    # telemetry (spans + counters; see repro.obs)
    # ------------------------------------------------------------------
    def _observe_core(self, event: str, key, interval: Interval) -> None:
        """Core lifecycle hook: log one span mark and count the event.

        This runs ~2× per offered interval, inside the loop the
        telemetry measures: one mark append and one bound-handle bump."""
        label, count = self._on_core_event[event]
        self._mark(interval, self.process.sim.now, label, self.process.pid)
        count()

    def _count_pair_tests(self, count: int) -> None:
        """Per-activation flush from the core (see ``on_pair_tests``)."""
        self._c_pair_tests[self.level if self.level is not None else 0] += count

    def _span_attrs(self) -> dict:
        return {} if self.level is None else {"level": self.level}

    def _record_report_span(self, aggregate: Interval) -> None:
        """A ``report`` span for an aggregate, adopting the spans of the
        solution-set intervals it compresses (``⊓`` provenance)."""
        spans = self._telemetry.spans
        now = self.process.sim.now
        sid = spans.record_sid(
            "report",
            now,
            now,
            node=self.process.pid,
            key=interval_key(aggregate),
            seq=aggregate.seq,
            members=len(aggregate.members),
            **self._span_attrs(),
        )
        for part in aggregate.parts:
            spans.adopt_sid(sid, interval_key(part))

    # ------------------------------------------------------------------
    # emission handling
    # ------------------------------------------------------------------
    def _handle(self, emissions: List[Emission]) -> None:
        for emission in emissions:
            if self.on_subtree_solution is not None:
                self.on_subtree_solution(self.process.pid, emission)
            if self.core.is_root:
                self._record_detection(emission.solution, emission.aggregate)
            else:
                if emission.aggregate.parts:
                    # A forwarded interval (no parts) is reported under
                    # its own ``interval`` span.
                    self._record_report_span(emission.aggregate)
                self._h_reports()
                self._report(emission)

    def _record_detection(self, solution: Solution, aggregate: Interval) -> None:
        record = DetectionRecord(
            time=self.process.sim.now,
            detector=self.process.pid,
            solution=solution,
            aggregate=aggregate,
        )
        self.detections.append(record)
        self._record_alarm_telemetry(record)
        self.process.sim.emit(
            "detection",
            node=self.process.pid,
            members=len(record.members),
            index=record.solution.index,
        )
        if self.on_detection is not None:
            self.on_detection(record)

    def _record_alarm_telemetry(self, record: DetectionRecord) -> None:
        """An ``alarm`` span parented over the solution's artifacts, plus
        the headline detection-latency observation.

        Latency is the simulated time from the *last* solution
        interval's open to the announcement — 0-safe: a predicate
        satisfied at the very first event yields a small non-negative
        latency, and replayed solutions whose interval spans were never
        traced fall back to 0.
        """
        telemetry = self._telemetry
        spans = telemetry.spans
        now = self.process.sim.now
        opens = []
        for leaf in record.solution.concrete_intervals():
            span = spans.get(interval_key(leaf))
            if span is not None:
                opens.append(span.start)
        latency = max(0.0, now - max(opens)) if opens else 0.0
        telemetry.detection_latency.observe(latency)
        alarm = spans.record_sid(
            "alarm",
            now,
            now,
            node=self.process.pid,
            index=record.solution.index,
            members=len(record.members),
            latency=latency,
            **self._span_attrs(),
        )
        self._h_alarms()
        aggregate = record.aggregate
        if aggregate is not None:
            # A pending aggregate announced after promotion already has
            # a report span — adopt it; otherwise adopt the solution
            # heads directly.
            if not spans.adopt_sid(alarm, interval_key(aggregate)):
                for part in aggregate.parts:
                    spans.adopt_sid(alarm, interval_key(part))
        else:
            for interval in record.solution.intervals:
                spans.adopt_sid(alarm, interval_key(interval))

    def _report(self, emission: Emission) -> None:
        if self.parent_id is None:
            # Orphaned mid-repair: hold reports for the next parent.
            self._pending.append(emission)
            return
        message = IntervalReport(
            origin=self.process.pid,
            dest=self.parent_id,
            interval=emission.aggregate,
            transport_seq=self._out_seq,
        )
        self._out_seq += 1
        self.process.send_control(self.parent_id, message)

    # ------------------------------------------------------------------
    # failure handling & rewiring (RepairableRole interface)
    # ------------------------------------------------------------------
    def _suspect(self, peer: int) -> None:
        if self.coordinator is not None:
            self.coordinator.report_failure(peer, reporter=self.process.pid)
            return
        # Standalone handling: degrade to partition-local monitoring.
        if peer == self.parent_id:
            self.become_root()
        elif peer in self._buffers:
            self.child_failed(peer)

    def _release_peer(self, peer: int) -> None:
        """Stop watching *peer* — unless it is still a tree neighbour in
        another capacity.  Re-rooting flips can make yesterday's parent
        today's child (and vice versa); heartbeat peers track the union
        of the current parent and children, so a removal must check the
        relationship that remains, not the one that ended."""
        if self.monitor is None:
            return
        if peer == self.parent_id or peer in self._buffers:
            return
        self.monitor.remove_peer(peer)

    def child_failed(self, child: int) -> None:
        """Drop a dead child's queue; remaining heads may form solutions."""
        self._buffers.pop(child, None)
        self._release_peer(child)
        self._handle(self.core.remove_child(child))

    def drop_child(self, child: int) -> None:
        """A live child moved elsewhere in the tree (re-rooting)."""
        self.child_failed(child)

    def gain_child(self, child: int) -> None:
        self.core.add_child(child)
        self._buffers[child] = ReorderBuffer()
        if self.monitor is not None:
            self.monitor.add_peer(child)

    def set_parent(self, parent: int) -> None:
        old_parent, self.parent_id = self.parent_id, parent
        if self.monitor is not None:
            self.monitor.add_peer(parent)
        if old_parent is not None:
            self._release_peer(old_parent)
        self.core.is_root = False
        self._out_seq = 0  # new attachment epoch: receiver has a fresh buffer
        pending, self._pending = self._pending, []
        for emission in pending:
            self._report(emission)

    def become_root(self) -> None:
        """Promoted (root died) or partitioned: solutions are now
        detections of the partial predicate over this node's domain."""
        old_parent, self.parent_id = self.parent_id, None
        if old_parent is not None:
            self._release_peer(old_parent)
        self.core.is_root = True
        pending, self._pending = self._pending, []
        for emission in pending:
            # These solutions were detected while orphaned; announce them.
            self._record_detection(emission.solution, emission.aggregate)

    def rebirth(self, parent: int) -> None:
        """Restart after recovery: fresh detector state (queues are soft
        state), rejoining as a leaf under *parent*.  Past detections are
        kept — they were correct when announced."""
        self.core = HierarchicalNodeCore(
            self.process.pid,
            (),
            is_root=False,
            observer=self._observe_core,
            on_pair_tests=self._count_pair_tests,
        )
        for observer in self._extra_core_observers:
            self.core.add_observer(observer)
        self._buffers = {}
        self._pending = []
        self._out_seq = 0
        self.parent_id = parent
        if self.monitor is not None:
            for peer in list(self.monitor.peers):
                self.monitor.remove_peer(peer)
            self.monitor.add_peer(parent)
            self.monitor.start()


class CentralizedReporterRole:
    """Baseline per-node role: every local interval goes to the sink,
    forwarded hop-by-hop along the spanning tree (Eq. 12 accounting)."""

    def __init__(self, route_to_sink: Sequence[int]) -> None:
        if len(route_to_sink) < 2:
            raise ValueError("reporter route must reach a distinct sink")
        self.route = list(route_to_sink)
        self.process: Optional[MonitoredProcess] = None
        self._out_seq = 0

    def bind(self, process: MonitoredProcess) -> None:
        if process.pid != self.route[0]:
            raise ValueError("route must start at the bound process")
        self.process = process

    def on_start(self) -> None:
        pass

    def on_local_interval(self, interval: Interval) -> None:
        message = IntervalReport(
            origin=self.process.pid,
            dest=self.route[-1],
            interval=interval,
            transport_seq=self._out_seq,
        )
        self._out_seq += 1
        self.process.send_control_routed(self.route, message)

    def on_control_message(self, src: int, message: object) -> None:
        pass  # the baseline has no node-level control traffic


class CentralizedSinkRole:
    """Baseline sink: all queues, all space, all time at one process."""

    def __init__(self, process_ids: Sequence[int], *, one_shot: bool = False) -> None:
        self.process_ids = list(process_ids)
        self.one_shot = one_shot
        self.process: Optional[MonitoredProcess] = None
        self.core = None
        self.detections: List[DetectionRecord] = []
        self._buffers: Dict[int, ReorderBuffer] = {}

    def bind(self, process: MonitoredProcess) -> None:
        self.process = process
        self.core = CentralizedSinkCore(
            process.pid, self.process_ids, repeated=not self.one_shot
        )
        self._buffers = {
            pid: ReorderBuffer() for pid in self.process_ids if pid != process.pid
        }

    def on_start(self) -> None:
        pass

    def on_local_interval(self, interval: Interval) -> None:
        self._record(self.core.offer(self.process.pid, interval))

    def on_control_message(self, src: int, message: object) -> None:
        if not isinstance(message, IntervalReport):
            return
        buffer = self._buffers.get(message.origin)
        if buffer is None:
            return
        for interval in buffer.push(message.transport_seq, message.interval):
            self._record(self.core.offer(message.origin, interval))

    def _record(self, solutions) -> None:
        for solution in solutions or []:
            self.detections.append(
                DetectionRecord(
                    time=self.process.sim.now,
                    detector=self.process.pid,
                    solution=solution,
                    aggregate=None,
                )
            )
