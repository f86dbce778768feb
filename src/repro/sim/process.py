"""Simulated application processes.

A :class:`MonitoredProcess` executes the *application plane*: internal
events, sends and receives, all driving its vector clock per the rules
of Section II-A, with a boolean local predicate attached to its state.
Maximal runs of predicate-true events become
:class:`~repro.intervals.Interval` objects; whenever one completes (the
predicate falls), the process hands it to its *detector role* — the
control-plane personality plugged in by the experiment harness
(hierarchical node, centralized reporter/sink, …).

Keeping the two planes separate mirrors the theory: detection traffic
must not perturb the happens-before structure of the monitored
computation, so control messages never touch the application vector
clock.

A process keeps no completed interval: its role received each one, and
the trace rebuilds them (:meth:`ExecutionTrace.intervals`).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..clocks import Timestamp, VectorClock
from ..intervals import Interval
from .kernel import Simulator
from .messages import AppMessage
from .network import Network
from .trace import EventKind, ExecutionTrace

__all__ = ["DetectorRole", "MonitoredProcess"]


class DetectorRole(Protocol):
    """Control-plane personality plugged into a :class:`MonitoredProcess`."""

    def bind(self, process: "MonitoredProcess") -> None:
        """Called once when attached to its process."""

    def on_local_interval(self, interval: Interval) -> None:
        """A local-predicate interval completed at the host process."""

    def on_control_message(self, src: int, message: object) -> None:
        """A control-plane message arrived."""

    def on_start(self) -> None:
        """The simulation is starting (schedule heartbeats etc.)."""


class MonitoredProcess:
    """One process of the monitored distributed computation."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        network: Network,
        trace: ExecutionTrace,
        role: Optional[DetectorRole] = None,
    ) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.trace = trace
        self.clock = VectorClock(trace.n, pid)
        self.predicate = trace.initial_predicate[pid]
        self.role = role
        self.alive = True
        self._run_start: Optional[Timestamp] = None
        self._run_start_time: Optional[float] = None
        self._run_last: Optional[Timestamp] = None
        self._interval_seq = 0
        self._count_interval = sim.telemetry.registry.counter_vec(
            "repro_intervals_total",
            "Local predicate intervals completed, per node.",
            ("node",),
        ).handle(pid)
        network.attach(pid, self._on_message)
        if role is not None:
            role.bind(self)

    @property
    def local_intervals(self) -> range:
        """The sequence numbers of the intervals completed so far (their
        ``len()`` is the count); the intervals themselves went to the
        role and are rebuilt by ``trace.intervals(pid)``."""
        return range(self._interval_seq)

    # ------------------------------------------------------------------
    # application-plane events
    # ------------------------------------------------------------------
    def _record(self, ts: Timestamp, kind: str) -> None:
        self.trace.record(self.pid, ts, kind, self.predicate, time=self.sim.now)
        if self.predicate:
            if self._run_start is None:
                self._run_start = ts
                self._run_start_time = self.sim.now
            self._run_last = ts
        elif self._run_start is not None:
            self._close_interval()

    def _close_interval(self) -> None:
        interval = Interval(
            owner=self.pid,
            seq=self._interval_seq,
            lo=self._run_start,
            hi=self._run_last,
        )
        self._interval_seq += 1
        self._run_start = None
        self._run_last = None
        # Every interval opens a span keyed by its identity, so the
        # detection layers can parent reports and alarms back onto it.
        # ``record_interval`` is the tracker's column-append fast path;
        # the per-node interval counter counts the same close.
        now = self.sim.now
        self.sim.telemetry.spans.record_interval(
            interval,
            self._run_start_time if self._run_start_time is not None else now,
            now,
            self.pid,
        )
        self._count_interval()
        self._run_start_time = None
        if self.role is not None:
            self.role.on_local_interval(interval)

    def internal_event(self) -> Timestamp:
        """Execute an internal event (current predicate value applies)."""
        if not self.alive:
            raise RuntimeError(f"P{self.pid} is crashed")
        ts = self.clock.tick()
        self._record(ts, EventKind.INTERNAL)
        return ts

    def set_predicate(self, value: bool) -> Timestamp:
        """Change the local predicate with an internal event.

        The event carries the *new* value: a rising edge's event is the
        interval's ``min(x)``; a falling edge's event is the first
        event after ``max(x)`` and completes the interval.
        """
        self.predicate = bool(value)
        return self.internal_event()

    def send_app(self, dst: int, payload: object = None) -> Timestamp:
        """Send an application message to a neighbour (send event)."""
        if not self.alive:
            raise RuntimeError(f"P{self.pid} is crashed")
        ts = self.clock.send()
        self._record(ts, EventKind.SEND)
        self.network.send(self.pid, dst, AppMessage(payload, ts), plane="app")
        return ts

    # ------------------------------------------------------------------
    # control-plane helpers for roles
    # ------------------------------------------------------------------
    def send_control(self, dst: int, message: object) -> None:
        self.network.send(self.pid, dst, message, plane="control")

    def send_control_routed(self, route, message: object) -> None:
        self.network.send_routed(route, message, plane="control")

    # ------------------------------------------------------------------
    def _on_message(self, src: int, message: object, plane: str) -> None:
        if not self.alive:
            return
        if plane == "app":
            assert isinstance(message, AppMessage)
            ts = self.clock.receive(message.piggyback)
            self._record(ts, EventKind.RECV)
            self.on_app_message(src, message.payload, ts)
        else:
            if self.role is not None:
                self.role.on_control_message(src, message)

    def on_app_message(self, src: int, payload: object, ts: Timestamp) -> None:
        """Hook for workload drivers; default is a plain receive event."""

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.role is not None:
            self.role.on_start()

    def crash(self) -> None:
        """Crash-stop: flush nothing, say nothing (Section III-F model)."""
        self.alive = False
        self.network.fail(self.pid)
        on_crash = getattr(self.role, "on_crash", None)
        if on_crash is not None:
            on_crash()

    def revive(self) -> None:
        """Restart after a crash (stable storage keeps the vector
        clock and interval numbering, so the local event order stays
        monotone across incarnations).  The detector role must be
        re-wired separately — see :mod:`repro.fault.rejoin`."""
        self.alive = True
        self.network.revive(self.pid)
        self.predicate = False
        self._run_start = None
        self._run_start_time = None
        self._run_last = None

    def finish(self) -> None:
        """End-of-run: close a trailing open interval, if any.

        Real monitoring never needs this (an open interval simply has
        not completed), but experiments want the full workload counted.
        """
        if self.alive and self._run_start is not None:
            self.set_predicate(False)
