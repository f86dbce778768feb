"""Unit tests: the repair coordinator driving role rewiring."""

import pytest

from repro.fault import RepairCoordinator
from repro.sim import Simulator
from repro.topology import SpanningTree, tree_with_chords


class RecordingRole:
    """Minimal RepairableRole that logs every rewiring call."""

    def __init__(self):
        self.calls = []

    def child_failed(self, child):
        self.calls.append(("child_failed", child))

    def become_root(self):
        self.calls.append(("become_root",))

    def set_parent(self, parent):
        self.calls.append(("set_parent", parent))

    def gain_child(self, child):
        self.calls.append(("gain_child", child))

    def drop_child(self, child):
        self.calls.append(("drop_child", child))


def make(tree, graph=None, dead=()):
    sim = Simulator()
    graph = graph or tree.as_graph()
    roles = {pid: RecordingRole() for pid in tree.nodes}
    dead_set = set(dead)
    coordinator = RepairCoordinator(
        sim, tree, graph, roles, repair_latency=1.0,
        is_alive=lambda pid: pid not in dead_set,
    )
    return sim, roles, coordinator


class TestCoordinator:
    def test_leaf_failure_notifies_parent_only(self):
        tree = SpanningTree.regular(2, 3)
        sim, roles, coord = make(tree, dead=(6,))
        coord.report_failure(6, reporter=2)
        sim.run()
        assert roles[2].calls == [("child_failed", 6)]
        assert all(r.calls == [] for pid, r in roles.items() if pid != 2)

    def test_duplicate_reports_coalesce(self):
        tree = SpanningTree.regular(2, 3)
        sim, roles, coord = make(tree, dead=(6,))
        coord.report_failure(6, reporter=2)
        coord.report_failure(6, reporter=5)
        sim.run()
        assert roles[2].calls == [("child_failed", 6)]

    def test_false_suspicion_raises(self):
        tree = SpanningTree.regular(2, 3)
        sim, roles, coord = make(tree, dead=())
        with pytest.raises(RuntimeError):
            coord.report_failure(6, reporter=2)

    def test_interior_failure_reattaches_orphans(self):
        tree = SpanningTree.regular(2, 3)
        graph = tree.as_graph()
        graph.add_edge(3, 0)
        graph.add_edge(4, 2)
        sim, roles, coord = make(tree, graph=graph, dead=(1,))
        coord.report_failure(1, reporter=0)
        sim.run()
        assert ("child_failed", 1) in roles[0].calls
        assert ("gain_child", 3) in roles[0].calls
        assert ("set_parent", 0) in roles[3].calls
        assert ("gain_child", 4) in roles[2].calls
        assert ("set_parent", 2) in roles[4].calls

    def test_root_failure_promotes_and_attaches(self):
        tree = SpanningTree.regular(2, 3)
        graph = tree_with_chords(tree.as_graph(), extra_edges=8, seed=2)
        sim, roles, coord = make(tree, graph=graph, dead=(0,))
        coord.report_failure(0, reporter=1)
        sim.run()
        assert ("become_root",) in roles[1].calls
        # Node 2's subtree reattached somewhere under the new root.
        assert any(call[0] == "set_parent" for call in roles[2].calls)

    def test_partitioned_orphans_become_roots(self):
        tree = SpanningTree.regular(2, 3)
        sim, roles, coord = make(tree, dead=(1,))  # graph == tree: no chords
        coord.report_failure(1, reporter=3)
        sim.run()
        assert ("become_root",) in roles[3].calls
        assert ("become_root",) in roles[4].calls

    def test_reroot_flip_sequence(self):
        tree = SpanningTree.regular(2, 4)
        graph = tree.as_graph()
        graph.add_edge(7, 2)
        graph.add_edge(4, 2)
        sim, roles, coord = make(tree, graph=graph, dead=(1,))
        coord.report_failure(1, reporter=0)
        sim.run()
        # Edge (3,7) flipped: 3 drops child 7, 7 gains child 3,
        # 3's parent becomes 7, 7 attaches under 2.
        assert ("drop_child", 7) in roles[3].calls
        assert ("gain_child", 3) in roles[7].calls
        assert ("set_parent", 7) in roles[3].calls
        assert ("set_parent", 2) in roles[7].calls
        assert ("gain_child", 7) in roles[2].calls

    def test_repair_applies_after_latency(self):
        tree = SpanningTree.regular(2, 2)
        sim, roles, coord = make(tree, dead=(1,))
        coord.report_failure(1, reporter=0)
        assert roles[0].calls == []  # not yet applied
        sim.run()
        assert roles[0].calls == [("child_failed", 1)]
