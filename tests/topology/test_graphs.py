"""Unit tests: topology generators."""

import networkx as nx

from repro.topology import (
    complete_topology,
    grid_topology,
    random_geometric_topology,
    tree_with_chords,
    SpanningTree,
)


class TestGenerators:
    def test_complete(self):
        g = complete_topology(5)
        assert g.number_of_edges() == 10

    def test_grid_relabelled_to_ints(self):
        g = grid_topology(3, 4)
        assert set(g.nodes) == set(range(12))
        assert g.has_edge(0, 1) and g.has_edge(0, 4)
        assert not g.has_edge(3, 4)  # row boundary

    def test_geometric_connected_and_deterministic(self):
        g1 = random_geometric_topology(40, seed=2)
        g2 = random_geometric_topology(40, seed=2)
        assert nx.is_connected(g1)
        assert set(g1.edges) == set(g2.edges)

    def test_geometric_seed_changes_graph(self):
        g1 = random_geometric_topology(40, seed=2)
        g2 = random_geometric_topology(40, seed=3)
        assert set(g1.edges) != set(g2.edges)

    def test_geometric_single_node(self):
        g = random_geometric_topology(1)
        assert g.number_of_nodes() == 1

    def test_tree_with_chords(self):
        tree = SpanningTree.regular(2, 4)
        g = tree_with_chords(tree.as_graph(), extra_edges=5, seed=1)
        assert g.number_of_edges() == tree.n - 1 + 5
        # Tree edges all preserved.
        for node, parent in tree.parent.items():
            if parent is not None:
                assert g.has_edge(node, parent)
