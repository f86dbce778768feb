"""Property-based tests of tree repair (hypothesis).

For any tree, any chord set, and any victim, the repair plan must
produce a structurally valid forest: the surviving main component is a
tree containing everything reachable, attachments use real graph edges,
re-rooting flips are consistent, and partitioned subtrees are exactly
the graph-unreachable ones.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import plan_repair

from .strategies import trees


@st.composite
def repair_cases(draw):
    n = draw(st.integers(3, 14))
    tree = draw(trees(n))
    graph = tree.as_graph()
    # Random chords.
    for _ in range(draw(st.integers(0, 8))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            graph.add_edge(u, v)
    victim = draw(st.integers(0, n - 1))
    return tree, graph, victim


SETTINGS = settings(max_examples=150, deadline=None)


class TestRepairPlanProperties:
    @SETTINGS
    @given(repair_cases())
    def test_result_is_a_valid_forest(self, case):
        tree, graph, victim = case
        new_tree, plan = plan_repair(tree, graph, victim)
        survivors = set(tree.nodes) - {victim}
        assert set(new_tree.parent) == survivors
        if not survivors:
            return
        # Every survivor's parent chain terminates without cycles.
        for node in survivors:
            seen = set()
            cur = node
            while new_tree.parent[cur] is not None:
                assert cur not in seen
                seen.add(cur)
                cur = new_tree.parent[cur]

    @SETTINGS
    @given(repair_cases())
    def test_every_tree_edge_is_a_graph_edge(self, case):
        tree, graph, victim = case
        new_tree, _ = plan_repair(tree, graph, victim)
        for node, parent in new_tree.parent.items():
            if parent is not None:
                assert graph.has_edge(node, parent)

    @SETTINGS
    @given(repair_cases())
    def test_partitioned_iff_graph_unreachable(self, case):
        tree, graph, victim = case
        new_tree, plan = plan_repair(tree, graph, victim)
        survivors = set(tree.nodes) - {victim}
        if not survivors:
            assert plan.partitioned == []
            return
        surviving_graph = graph.subgraph(survivors)
        main_root = plan.new_root if plan.new_root is not None else tree.root
        reachable = nx.node_connected_component(surviving_graph, main_root)
        main_component = set(new_tree.subtree_nodes(main_root))
        # Everything graph-reachable from the main root got connected.
        assert main_component == reachable
        # Partitioned roots are exactly the unreachable orphans' roots.
        partitioned_nodes = set()
        for orphan in plan.partitioned:
            partitioned_nodes.update(new_tree.subtree_nodes(orphan))
        assert partitioned_nodes == survivors - reachable

    @SETTINGS
    @given(repair_cases())
    def test_subtree_membership_preserved(self, case):
        """Repair moves subtrees wholesale: no surviving node changes
        which orphan-subtree (or main component) it belongs to."""
        tree, graph, victim = case
        orphan_membership = {}
        for orphan in tree.children(victim):
            for node in tree.subtree_nodes(orphan):
                orphan_membership[node] = orphan
        new_tree, plan = plan_repair(tree, graph, victim)
        for att in plan.attachments:
            members = set(new_tree.subtree_nodes(att.subtree_root))
            expected = {
                node
                for node, orphan in orphan_membership.items()
                if orphan == att.orphan
            }
            # The re-rooted subtree contains exactly the orphan's nodes
            # (later attachments may nest below it, so use >=).
            assert members >= expected

    @SETTINGS
    @given(repair_cases())
    def test_new_root_promotion_rules(self, case):
        tree, graph, victim = case
        _, plan = plan_repair(tree, graph, victim)
        if victim == tree.root:
            orphans = tree.children(victim)
            if orphans:
                assert plan.new_root == min(orphans)
            else:
                assert plan.new_root is None
        else:
            assert plan.new_root is None
