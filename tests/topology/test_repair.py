"""Unit tests: spanning-tree repair plans (Section III-F)."""

import pytest

from repro.topology import SpanningTree, plan_repair, tree_with_chords


def chordful(tree, extra=8, seed=0):
    return tree_with_chords(tree.as_graph(), extra_edges=extra, seed=seed)


class TestLeafFailure:
    def test_leaf_failure_needs_no_attachments(self):
        tree = SpanningTree.regular(2, 3)
        new_tree, plan = plan_repair(tree, tree.as_graph(), failed=6)
        assert plan.old_parent == 2
        assert plan.attachments == [] and plan.partitioned == []
        assert 6 not in new_tree.parent
        assert new_tree.n == 6

    def test_original_tree_untouched(self):
        tree = SpanningTree.regular(2, 3)
        plan_repair(tree, tree.as_graph(), failed=6)
        assert 6 in tree.parent


class TestInteriorFailure:
    def test_orphans_reattach_via_chords(self):
        tree = SpanningTree.regular(2, 4)  # 15 nodes
        graph = chordful(tree)
        new_tree, plan = plan_repair(tree, graph, failed=1)
        assert plan.old_parent == 0
        assert not plan.partitioned
        # All remaining nodes connected under the old root.
        assert sorted(new_tree.subtree_nodes(new_tree.root)) == [
            n for n in range(15) if n != 1
        ]

    def test_tree_only_graph_partitions(self):
        tree = SpanningTree.regular(2, 3)
        new_tree, plan = plan_repair(tree, tree.as_graph(), failed=1)
        assert set(plan.partitioned) == {3, 4}
        # Each partition survives as its own detection domain.
        assert new_tree.subtree_nodes(3) == [3]

    def test_attachment_prefers_shallow_parent(self):
        tree = SpanningTree.regular(2, 3)
        graph = tree.as_graph()
        graph.add_edge(3, 0)  # orphan 3 has a link to the root
        graph.add_edge(3, 5)  # ... and to a deeper node
        _, plan = plan_repair(tree, graph, failed=1)
        att3 = next(a for a in plan.attachments if a.orphan == 3)
        assert att3.new_parent == 0

    def test_reroot_when_link_is_interior(self):
        # Failing node 1 of a (2,4)-tree orphans subtrees {3,7,8} and
        # {4,9,10}.  Subtree {3,7,8}'s only surviving link leaves from
        # leaf 7, so the subtree re-roots at 7 before attaching.
        tree = SpanningTree.regular(2, 4)
        graph = tree.as_graph()
        graph.add_edge(7, 2)
        graph.add_edge(4, 2)
        new_tree, plan = plan_repair(tree, graph, failed=1)
        att3 = next(a for a in plan.attachments if a.orphan == 3)
        assert att3.subtree_root == 7
        assert att3.new_parent == 2
        assert att3.flipped_edges == ((3, 7),)
        assert new_tree.parent_of(3) == 7
        assert new_tree.parent_of(7) == 2
        assert new_tree.parent_of(8) == 3  # untouched below the flip


class TestRootFailure:
    def test_smallest_orphan_promoted(self):
        tree = SpanningTree.regular(2, 3)
        graph = chordful(tree, extra=6, seed=4)
        new_tree, plan = plan_repair(tree, graph, failed=0)
        assert plan.new_root == 1
        assert plan.old_parent is None
        assert new_tree.root == 1

    def test_single_node_tree_dies(self):
        tree = SpanningTree.regular(1, 1)
        new_tree, plan = plan_repair(tree, tree.as_graph(), failed=0)
        assert plan.new_root is None
        assert new_tree.parent == {}


class TestChainedAttachment:
    def test_orphan_attaches_through_another_orphan(self):
        """An orphan with no direct link to the root component can
        attach through a sibling orphan once that one reattaches."""
        tree = SpanningTree.regular(2, 3)
        graph = tree.as_graph()
        graph.add_edge(3, 2)  # orphan 3's subtree -> main component
        graph.add_edge(4, 3)  # orphan 4 only reaches orphan 3's subtree
        new_tree, plan = plan_repair(tree, graph, failed=1)
        assert not plan.partitioned
        assert sorted(a.orphan for a in plan.attachments) == [3, 4]

    def test_unknown_node_rejected(self):
        tree = SpanningTree.regular(2, 2)
        with pytest.raises(ValueError):
            plan_repair(tree, tree.as_graph(), failed=99)


class TestDeterminism:
    def test_same_inputs_same_plan(self):
        tree1 = SpanningTree.regular(3, 3)
        tree2 = SpanningTree.regular(3, 3)
        graph = chordful(tree1, extra=10, seed=9)
        _, plan1 = plan_repair(tree1, graph, failed=1)
        _, plan2 = plan_repair(tree2, graph, failed=1)
        assert plan1.attachments == plan2.attachments
        assert plan1.partitioned == plan2.partitioned
