"""Unit tests: detector roles embedded in small simulations."""

from types import SimpleNamespace

import pytest

from repro.detect import CentralizedReporterRole, CentralizedSinkRole, HierarchicalRole
from repro.sim import ExecutionTrace, MonitoredProcess, Network, Simulator, uniform_delay
from repro.topology import SpanningTree


def build(tree, role_factory, n=None, delay=(0.5, 1.5), seed=0):
    n = n or tree.n
    sim = Simulator(seed=seed)
    net = Network(sim, tree.as_graph(), uniform_delay(*delay))
    trace = ExecutionTrace(n)
    roles = {pid: role_factory(pid) for pid in tree.nodes}
    processes = {
        pid: MonitoredProcess(pid, sim, net, trace, roles[pid]) for pid in tree.nodes
    }
    for p in processes.values():
        p.start()
    return sim, net, trace, roles, processes


def sync_pulse(sim, processes, tree, at):
    """Drive one globally-overlapping interval across all processes.

    Everyone raises the predicate, then a level-spaced convergecast
    carries every ``min`` to the root, a level-spaced broadcast carries
    the root's knowledge into every interval, and everyone lowers the
    predicate — so all pairs satisfy ``min(x_i) ≺ max(x_j)``.  The
    5-unit level spacing dominates the (≤1.5) hop delay, making the
    wave sequencing deterministic.
    """
    pids = list(tree.iter_bfs())
    max_depth = max(tree.depth(pid) for pid in pids)

    def start(pid):
        processes[pid].set_predicate(True)

    def up(pid):
        parent = tree.parent_of(pid)
        if parent is not None:
            processes[pid].send_app(parent, "up")

    def down(pid):
        for child in tree.children(pid):
            processes[pid].send_app(child, "down")

    def end(pid):
        processes[pid].set_predicate(False)

    for pid in pids:
        depth = tree.depth(pid)
        sim.schedule_at(at, lambda p=pid: start(p))
        # Deepest nodes send up first; each level waits for the one below.
        sim.schedule_at(at + 2.0 + (max_depth - depth) * 5.0, lambda p=pid: up(p))
        # Root broadcasts down first; each level forwards after hearing it.
        sim.schedule_at(
            at + 2.0 + (max_depth + 1) * 5.0 + depth * 5.0, lambda p=pid: down(p)
        )
        sim.schedule_at(at + 2.0 + (max_depth + 2) * 10.0, lambda p=pid: end(p))


class TestHierarchicalRole:
    def test_three_node_chain_detects(self):
        tree = SpanningTree.regular(1, 3)  # chain 0-1-2, root 0
        sim, net, trace, roles, processes = build(
            tree,
            lambda pid: HierarchicalRole(tree.parent_of(pid), tree.children(pid)),
        )
        sync_pulse(sim, processes, tree, at=1.0)
        sim.run(until=100.0)
        root_role = roles[0]
        assert len(root_role.detections) == 1
        assert root_role.detections[0].members == frozenset({0, 1, 2})

    def test_reports_travel_one_hop_only(self):
        tree = SpanningTree.regular(2, 3)
        sim, net, trace, roles, processes = build(
            tree,
            lambda pid: HierarchicalRole(tree.parent_of(pid), tree.children(pid)),
        )
        sync_pulse(sim, processes, tree, at=1.0)
        sim.run(until=200.0)
        assert len(roles[0].detections) == 1
        # 6 non-root nodes, one interval each -> exactly 6 report hops.
        reports = sum(
            v for (plane, t), v in net.sent.items()
            if plane == "control" and t == "IntervalReport"
        )
        assert reports == 6

    def test_non_fifo_reports_reordered(self):
        """Two pulses: the parent must consume child reports in seq
        order even when the network reorders them."""
        tree = SpanningTree.regular(1, 2)  # 0 <- 1
        sim, net, trace, roles, processes = build(
            tree,
            lambda pid: HierarchicalRole(tree.parent_of(pid), tree.children(pid)),
            delay=(0.1, 5.0),  # heavy jitter: reordering likely
            seed=11,
        )
        for k in range(4):
            sync_pulse(sim, processes, tree, at=1.0 + 40.0 * k)
        sim.run(until=400.0)
        assert len(roles[0].detections) == 4

    def test_orphaned_role_buffers_reports(self):
        role = HierarchicalRole(parent=None, children=[])
        tree = SpanningTree.regular(1, 1)
        sim, net, trace, roles, processes = build(tree, lambda pid: role)
        # Root with no parent: emissions are detections, not reports.
        processes[0].set_predicate(True)
        processes[0].set_predicate(False)
        assert len(role.detections) == 1


class TestCentralizedRoles:
    def test_sink_collects_via_multihop(self):
        tree = SpanningTree.regular(1, 3)  # chain, root 0 is the sink
        def factory(pid):
            if pid == 0:
                return CentralizedSinkRole(tree.nodes)
            return CentralizedReporterRole(tree.path_to_root(pid))

        sim, net, trace, roles, processes = build(tree, factory)
        sync_pulse(sim, processes, tree, at=1.0)
        sim.run(until=100.0)
        assert len(roles[0].detections) == 1
        # Hops: node1 -> 1, node2 -> 2; total 3 report messages.
        reports = sum(
            v for (plane, t), v in net.sent.items()
            if plane == "control" and t == "IntervalReport"
        )
        assert reports == 3

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_sink_outside_process_ids_is_rejected(self, one_shot):
        # Both sink modes build the same validated core.
        role = CentralizedSinkRole([1, 2], one_shot=one_shot)
        with pytest.raises(ValueError, match="sink must be one of"):
            role.bind(SimpleNamespace(pid=0))

    def test_one_shot_sink_halts(self):
        tree = SpanningTree.regular(1, 2)
        def factory(pid):
            if pid == 0:
                return CentralizedSinkRole(tree.nodes, one_shot=True)
            return CentralizedReporterRole(tree.path_to_root(pid))

        sim, net, trace, roles, processes = build(tree, factory)
        for k in range(3):
            sync_pulse(sim, processes, tree, at=1.0 + 40.0 * k)
        sim.run(until=300.0)
        assert len(roles[0].detections) == 1
        assert roles[0].core.halted
