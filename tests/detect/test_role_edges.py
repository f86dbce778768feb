"""Unit tests: detector-role edge cases around rewiring and transport."""

import networkx as nx

from repro.detect import HierarchicalRole
from repro.sim import (
    ExecutionTrace,
    IntervalReport,
    MonitoredProcess,
    Network,
    Simulator,
    uniform_delay,
)
from repro.workload.scenarios import figure3_execution


def make_host(role, pid=0, n=4, peers=(1, 2, 3)):
    sim = Simulator(seed=0)
    g = nx.Graph()
    g.add_node(pid)
    for peer in peers:
        g.add_edge(pid, peer)
    net = Network(sim, g, uniform_delay(0.1, 0.2))
    trace = ExecutionTrace(n)
    process = MonitoredProcess(pid, sim, net, trace, role)
    return sim, net, process


def intervals():
    ivs = figure3_execution().intervals()
    return [ivs[p][0] for p in range(4)]


class TestStaleTraffic:
    def test_report_from_non_child_ignored(self):
        role = HierarchicalRole(parent=None, children=[1])
        sim, net, process = make_host(role)
        x1, y1, x2, y2 = intervals()
        stale = IntervalReport(origin=2, dest=0, interval=x2, transport_seq=0)
        role.on_control_message(2, stale)  # 2 is not a child
        assert role.core.stats.offers == 0

    def test_unknown_control_message_ignored(self):
        role = HierarchicalRole(parent=None, children=[])
        sim, net, process = make_host(role)
        role.on_control_message(1, object())  # no crash, no effect
        assert role.detections == []


class TestOrphanBuffering:
    def test_reports_buffer_while_orphaned_and_flush_in_order(self):
        # A non-root role whose parent is gone: parent=None but not root.
        role = HierarchicalRole(parent=1, children=[])
        sim, net, process = make_host(role)
        role.parent_id = None  # orphaned mid-repair
        role.core.is_root = False
        x1, y1, *_ = intervals()
        role.on_local_interval(x1)
        local_second = figure3_execution().intervals()[0]
        assert len(role._pending) == 1
        # New parent arrives: pending aggregates flush with fresh
        # transport numbering.
        role.set_parent(2)
        sent = [
            (plane, t) for (plane, t) in net.sent if t == "IntervalReport"
        ]
        assert sent  # the buffered report went out
        assert role._out_seq == 1
        assert role._pending == []

    def test_become_root_converts_pending_to_detections(self):
        role = HierarchicalRole(parent=1, children=[])
        sim, net, process = make_host(role)
        role.parent_id = None
        role.core.is_root = False
        x1, *_ = intervals()
        role.on_local_interval(x1)
        assert role.detections == []
        role.become_root()
        assert len(role.detections) == 1
        assert role.detections[0].aggregate is not None


class TestStandaloneSuspicion:
    def test_without_coordinator_parent_loss_makes_partition_root(self):
        role = HierarchicalRole(parent=1, children=[2], heartbeat=(1.0, 3.0))
        sim, net, process = make_host(role)
        role._suspect(1)  # parent presumed dead, no coordinator
        assert role.parent_id is None
        assert role.core.is_root

    def test_without_coordinator_child_loss_drops_queue(self):
        role = HierarchicalRole(parent=None, children=[1, 2], heartbeat=(1.0, 3.0))
        sim, net, process = make_host(role)
        role._suspect(2)
        assert role.core.children == [1]
        assert 2 not in role._buffers


class TestTransportEpochs:
    def test_out_seq_resets_per_attachment(self):
        role = HierarchicalRole(parent=1, children=[])
        sim, net, process = make_host(role)
        x1, *_ = intervals()
        role.on_local_interval(x1)
        assert role._out_seq == 1
        role.set_parent(2)
        assert role._out_seq == 0  # fresh epoch for the new parent

    def test_aggregate_seq_survives_reattachment(self):
        """Interval.seq (Theorem 2 order) keeps increasing across
        parents even though transport numbering restarts."""
        emitted = []
        role = HierarchicalRole(
            parent=1, children=[], on_subtree_solution=lambda pid, e: emitted.append(e)
        )
        sim, net, process = make_host(role)
        x1, y1, x2, y2 = intervals()
        role.on_local_interval(x1)
        role.set_parent(2)
        # Drive another emission via a later local interval.
        later = figure3_execution()
        role.on_local_interval(
            type(x1)(owner=0, seq=1, lo=x1.hi + 1, hi=x1.hi + 2)
        )
        aggs = [e.aggregate.seq for e in emitted]
        assert aggs == [0, 1]
