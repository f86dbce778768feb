"""End-to-end experiment runner.

Builds a full simulation — topology, spanning tree, workload, detector
roles, optional failures — runs it, and returns structured results the
experiment scripts, tests and benches consume.

Both detector configurations run over the *same* workload machinery, so
measured differences are attributable to the algorithms alone:

* :func:`run_hierarchical` — every node runs Algorithm 1
  (:class:`~repro.detect.HierarchicalRole`); reports travel one hop.
* :func:`run_centralized` — the baseline [12]: every non-sink node
  reports raw intervals hop-by-hop to the sink (the tree root), which
  runs the repeated-detection machinery alone (or, with ``one_shot``,
  stops at the first solution as [7] does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..analysis.metrics import RunMetrics, collect_centralized, collect_hierarchical
from ..detect.roles import (
    CentralizedReporterRole,
    CentralizedSinkRole,
    DetectionRecord,
    HierarchicalRole,
)
from ..fault.coordinator import RepairCoordinator
from ..fault.injector import FailureInjector
from ..sim.kernel import Simulator
from ..sim.network import Network, uniform_delay
from ..sim.trace import ExecutionTrace
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig, EpochProcess, EpochWorkload

__all__ = [
    "RunResult",
    "run_hierarchical",
    "run_centralized",
]

#: Default one-hop delay bounds (non-FIFO: each message samples its own).
DELAY_LOW, DELAY_HIGH = 0.5, 1.5


@dataclass
class RunResult:
    """Everything a finished run exposes."""

    metrics: RunMetrics
    detections: List[DetectionRecord]
    trace: ExecutionTrace
    tree: SpanningTree
    sim: Simulator
    network: Network
    roles: Dict[int, object] = field(default_factory=dict)
    workload: Optional[EpochWorkload] = None
    crashed: List[tuple] = field(default_factory=list)


def _build_common(
    tree: SpanningTree, graph: Optional[nx.Graph], seed: int
) -> Tuple[Simulator, Network, ExecutionTrace, nx.Graph]:
    graph = graph if graph is not None else tree.as_graph()
    for node, parent in tree.parent.items():
        if parent is not None and not graph.has_edge(node, parent):
            raise ValueError("communication graph must contain the tree's edges")
    sim = Simulator(seed=seed)
    network = Network(sim, graph, uniform_delay(DELAY_LOW, DELAY_HIGH))
    trace = ExecutionTrace(tree.n)
    return sim, network, trace, graph


def _run_epochs(
    sim: Simulator,
    network: Network,
    trace: ExecutionTrace,
    tree: SpanningTree,
    roles: Dict[int, object],
    config: EpochConfig,
    extra_time: float,
    arm: Callable[[Dict[int, EpochProcess]], None] = lambda processes: None,
) -> EpochWorkload:
    """Give every node an :class:`EpochProcess` running its role, install
    the epoch workload, let ``arm`` schedule anything that must precede
    the processes' start (crashes, rejoins), start every process and run
    to the workload's end plus ``extra_time``."""
    processes = {
        pid: EpochProcess(pid, sim, network, trace, roles[pid], tree)
        for pid in tree.nodes
    }
    workload = EpochWorkload(sim, processes, tree, config, max_delay=DELAY_HIGH)
    workload.install()
    arm(processes)
    for process in processes.values():
        process.start()
    sim.run(until=workload.end_time + extra_time)
    return workload


def run_hierarchical(
    tree: SpanningTree,
    *,
    graph: Optional[nx.Graph] = None,
    seed: int = 0,
    config: Optional[EpochConfig] = None,
    failures: Sequence[Tuple[float, int]] = (),
    revivals: Sequence[Tuple[float, int]] = (),
    heartbeat: Optional[tuple] = None,
    extra_time: float = 0.0,
) -> RunResult:
    """Run the hierarchical detector over the epoch workload.

    ``failures`` is a list of ``(time, pid)`` crashes; providing any
    enables heartbeats (default period 5, timeout 16) and the repair
    coordinator unless ``heartbeat`` overrides the timing.
    ``revivals`` schedules ``(time, pid)`` recoveries of previously
    crashed nodes (see :mod:`repro.fault.rejoin`).
    """
    config = config or EpochConfig()
    sim, network, trace, graph = _build_common(tree, graph, seed)
    if (failures or revivals) and heartbeat is None:
        heartbeat = (5.0, 16.0)

    roles: Dict[int, HierarchicalRole] = {}
    coordinator = None
    if heartbeat is not None:
        coordinator = RepairCoordinator(
            sim, tree, graph, roles, is_alive=network.is_alive
        )
    for pid in tree.nodes:
        roles[pid] = HierarchicalRole(
            parent=tree.parent_of(pid),
            children=tree.children(pid),
            heartbeat=heartbeat,
            coordinator=coordinator,
            level=tree.level(pid),
        )
    injector: Optional[FailureInjector] = None

    def arm(processes: Dict[int, EpochProcess]) -> None:
        nonlocal injector
        injector = FailureInjector(sim, processes)
        for time, pid in failures:
            injector.crash_at(time, pid)
        if revivals:
            from ..fault.rejoin import RejoinManager

            rejoin_manager = RejoinManager(coordinator, processes)
            for time, pid in revivals:
                rejoin_manager.schedule_rejoin(time, pid)

    workload = _run_epochs(sim, network, trace, tree, roles, config, extra_time, arm)

    metrics = collect_hierarchical(network, tree, roles)
    detections: List[DetectionRecord] = []
    for role in roles.values():
        detections.extend(role.detections)
    detections.sort(key=lambda d: d.time)
    return RunResult(
        metrics=metrics,
        detections=detections,
        trace=trace,
        tree=tree,
        sim=sim,
        network=network,
        roles=roles,
        workload=workload,
        crashed=list(injector.crashed),
    )


def run_centralized(
    tree: SpanningTree,
    *,
    graph: Optional[nx.Graph] = None,
    seed: int = 0,
    config: Optional[EpochConfig] = None,
    one_shot: bool = False,
    extra_time: float = 0.0,
) -> RunResult:
    """Run the centralized baseline [12] (or the one-shot variant [7])
    over the identical epoch workload, sink at the tree root."""
    config = config or EpochConfig()
    sim, network, trace, graph = _build_common(tree, graph, seed)
    sink = tree.root
    sink_role = CentralizedSinkRole(tree.nodes, one_shot=one_shot)
    roles: Dict[int, object] = {sink: sink_role}
    for pid in tree.nodes:
        if pid == sink:
            continue
        route = tree.path_to_root(pid)
        roles[pid] = CentralizedReporterRole(route)
    workload = _run_epochs(sim, network, trace, tree, roles, config, extra_time)

    reporter_pids = [pid for pid in tree.nodes if pid != sink]
    metrics = collect_centralized(network, tree, sink_role, reporter_pids)
    return RunResult(
        metrics=metrics,
        detections=list(sink_role.detections),
        trace=trace,
        tree=tree,
        sim=sim,
        network=network,
        roles=roles,
        workload=workload,
    )
