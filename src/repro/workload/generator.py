"""Workload generators for the simulation experiments.

Two drivers:

* :class:`EpochWorkload` — the controllable workload behind the
  message-complexity experiments.  Execution proceeds in *epochs*; in
  each epoch every process raises its local predicate once (so the
  number of epochs is the paper's ``p``).  In a *synchronized* epoch a
  convergecast/broadcast wave over the spanning tree threads causality
  through every interval — each interval's start happens-before every
  interval's end — producing a global ``Definitely(Φ)`` occurrence.  In
  a *broken* epoch a random subset of processes defect: they end their
  interval before the wave reaches them, so subtrees containing a
  defector fail to aggregate while defector-free subtrees still detect
  locally.  The two knobs (``sync_prob``, ``defect_frac``) steer the
  realized per-level aggregation probability — the paper's ``α``.

* :class:`RandomWorkload` — uncoordinated random predicate toggling and
  peer-to-peer chatter; the adversarial input for property-based and
  differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..sim.kernel import Simulator
from ..sim.process import MonitoredProcess
from ..topology.spanning_tree import SpanningTree
from .distributions import exponential_gap

__all__ = ["EpochConfig", "EpochProcess", "EpochWorkload", "RandomWorkload"]


@dataclass
class EpochConfig:
    """Knobs for :class:`EpochWorkload`."""

    epochs: int = 10  # the paper's p: intervals per process
    sync_prob: float = 0.7  # P(epoch has no defectors at all)
    defect_frac: float = 0.25  # defector fraction within a broken epoch
    start_jitter: float = 0.4  # per-process interval-start jitter
    defect_end: float = 0.6  # defectors end this long after starting
    epoch_length: Optional[float] = None  # derived from tree height if None
    drain_time: float = 60.0  # settle time after the last epoch
    # Processes that defect in EVERY epoch (their predicate never joins
    # a global occurrence) — the starvation experiment's knob.
    permanent_defectors: tuple = ()

    def resolved_epoch_length(self, height: int, max_delay: float) -> float:
        if self.epoch_length is not None:
            return self.epoch_length
        # A wave needs ~2(h-1) hops; leave generous slack for jitter.
        return (2.0 * height + 4.0) * max_delay + self.start_jitter + 2.0


class EpochProcess(MonitoredProcess):
    """A monitored process executing the epoch wave protocol."""

    def __init__(self, pid, sim, network, trace, role, tree: SpanningTree):
        super().__init__(pid, sim, network, trace, role)
        self.tree = tree
        self.current_epoch = -1
        self.is_defector = False
        # Wave state of the epochs in flight only: an epoch leaves
        # ``_began`` (so no second up-message goes out) and
        # ``_up_count`` once its up-message is sent.  Only an up that
        # arrives after that (from a child adopted by tree repair)
        # leaves a count behind, which nothing reads.
        self._began: Set[int] = set()
        self._up_count: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int, defector: bool) -> None:
        if not self.alive:
            return
        if self.predicate:
            # Previous epoch's wave never arrived (e.g. broken epoch or
            # failures); close that interval before opening the next.
            self.set_predicate(False)
        self.current_epoch = epoch
        self.is_defector = defector
        self._began.add(epoch)
        self.set_predicate(True)  # min(x) for this epoch's interval
        self._maybe_send_up(epoch)

    def end_epoch_early(self, epoch: int) -> None:
        """Defector: drop the predicate before the wave returns."""
        if self.alive and self.predicate and self.current_epoch == epoch:
            self.set_predicate(False)

    # ------------------------------------------------------------------
    def _children(self) -> List[int]:
        # Prefer the detector role's live view: tree repair rewires the
        # hierarchy at the roles, and the wave must follow it (the
        # static tree object is only mutated on the coordinator path).
        role = self.role
        core = getattr(role, "core", None)
        if core is not None and hasattr(core, "children"):
            return list(core.children)
        return self.tree.children(self.pid)

    def _wave_parent(self) -> Optional[int]:
        role = self.role
        core = getattr(role, "core", None)
        if core is not None and hasattr(role, "parent_id"):
            return role.parent_id
        return self.tree.parent_of(self.pid)

    def _maybe_send_up(self, epoch: int) -> None:
        """Forward the convergecast once our subtree has reported and we
        have begun the epoch ourselves."""
        if epoch not in self._began:
            return
        if self._up_count.get(epoch, 0) < len(self._children()):
            return
        self._began.discard(epoch)
        self._up_count.pop(epoch, None)
        parent = self._wave_parent()
        if parent is None:
            # Root: the convergecast is complete; start the broadcast.
            for child in self._children():
                self.send_app(child, ("down", epoch))
            self._on_wave_down(epoch)
        else:
            self.send_app(parent, ("up", epoch))

    def _on_wave_down(self, epoch: int) -> None:
        if self.current_epoch == epoch and not self.is_defector and self.predicate:
            # The wave (or, at the root, the last convergecast receive)
            # is inside the interval: max(x) now dominates every min.
            self.set_predicate(False)

    def on_app_message(self, src: int, payload: object, ts) -> None:
        kind, epoch = payload
        if kind == "up":
            self._up_count[epoch] = self._up_count.get(epoch, 0) + 1
            self._maybe_send_up(epoch)
        elif kind == "down":
            for child in self._children():
                self.send_app(child, ("down", epoch))
            self._on_wave_down(epoch)


class EpochWorkload:
    """Schedules the epoch protocol across all processes."""

    def __init__(
        self,
        sim: Simulator,
        processes: Dict[int, EpochProcess],
        tree: SpanningTree,
        config: EpochConfig,
        *,
        max_delay: float = 1.5,
        start_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.processes = processes
        self.tree = tree
        self.config = config
        self.epoch_length = config.resolved_epoch_length(tree.height, max_delay)
        self.start_time = start_time
        self.defectors_by_epoch: List[Set[int]] = []

    @property
    def end_time(self) -> float:
        return (
            self.start_time
            + self.config.epochs * self.epoch_length
            + self.config.drain_time
        )

    def install(self) -> None:
        """Pre-schedule every epoch (deterministic given the sim seed)."""
        rng = self.sim.rng("workload")
        pids = sorted(self.processes)
        for epoch in range(self.config.epochs):
            base = self.start_time + epoch * self.epoch_length
            if rng.random() < self.config.sync_prob:
                defectors: Set[int] = set()
            else:
                k = max(1, round(self.config.defect_frac * len(pids)))
                defectors = set(
                    int(x) for x in rng.choice(pids, size=k, replace=False)
                )
            defectors.update(self.config.permanent_defectors)
            self.defectors_by_epoch.append(defectors)
            for pid in pids:
                process = self.processes[pid]
                jitter = float(rng.uniform(0, self.config.start_jitter))
                is_defector = pid in defectors
                self.sim.schedule_at(
                    base + jitter,
                    lambda p=process, e=epoch, d=is_defector: p.begin_epoch(e, d),
                )
                if is_defector:
                    self.sim.schedule_at(
                        base + jitter + self.config.defect_end,
                        lambda p=process, e=epoch: p.end_epoch_early(e),
                    )
        # Close any trailing intervals so every epoch's workload counts.
        self.sim.schedule_at(
            self.start_time
            + self.config.epochs * self.epoch_length
            + self.config.drain_time / 2,
            self._finish_all,
        )

    def _finish_all(self) -> None:
        for process in self.processes.values():
            if process.alive:
                process.finish()


class RandomWorkload:
    """Uncoordinated toggling + random neighbour chatter.

    Every process alternates predicate-off and predicate-on phases with
    exponentially distributed durations and sends application messages
    to uniformly random graph neighbours at exponential spacings.
    """

    def __init__(
        self,
        sim: Simulator,
        processes: Dict[int, MonitoredProcess],
        *,
        duration: float = 100.0,
        mean_on: float = 4.0,
        mean_off: float = 4.0,
        msg_rate: float = 0.5,
    ) -> None:
        self.sim = sim
        self.processes = processes
        self.duration = duration
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.msg_rate = msg_rate

    def install(self) -> None:
        rng = self.sim.rng("workload")
        for pid in sorted(self.processes):
            process = self.processes[pid]
            # Pre-sample the whole toggle schedule for determinism; gaps
            # come from the shared distribution helper so the sim and
            # the socket traffic plane (repro.load) sample identically.
            t = exponential_gap(rng, self.mean_off)
            state = True
            while t < self.duration:
                self.sim.schedule_at(
                    t,
                    lambda p=process, s=state: p.alive and p.set_predicate(s),
                )
                t += exponential_gap(
                    rng, self.mean_on if state else self.mean_off
                )
                state = not state
            # Random chatter to graph neighbours.
            if self.msg_rate > 0:
                t = exponential_gap(rng, 1.0 / self.msg_rate)
                while t < self.duration:
                    neighbours = sorted(process.network.graph.neighbors(pid))
                    if neighbours:
                        dst = int(rng.choice(neighbours))
                        self.sim.schedule_at(
                            t,
                            lambda p=process, d=dst: p.alive
                            and p.network.is_alive(d)
                            and p.send_app(d, "chatter"),
                        )
                    t += exponential_gap(rng, 1.0 / self.msg_rate)
        self.sim.schedule_at(self.duration + 1.0, self._finish_all)

    def _finish_all(self) -> None:
        for process in self.processes.values():
            if process.alive:
                process.finish()
