"""Unit tests: degree-bounded BFS spanning trees."""

import networkx as nx
import pytest

from repro.topology import SpanningTree, random_geometric_topology


class TestBfsBounded:
    def test_respects_bound_on_geometric_graph(self):
        graph = random_geometric_topology(60, seed=2)
        tree = SpanningTree.bfs_bounded(graph, root=0, max_degree=3)
        assert tree.n == 60
        assert tree.degree <= 3
        # All tree edges are graph edges.
        for node, parent in tree.parent.items():
            if parent is not None:
                assert graph.has_edge(node, parent)

    def test_star_graph_needs_the_fallback(self):
        # Every node's only neighbour is the hub: the bound must yield.
        graph = nx.star_graph(10)
        tree = SpanningTree.bfs_bounded(graph, root=0, max_degree=2)
        assert tree.n == 11
        assert tree.degree == 10  # connectivity beats the bound

    def test_cheaper_hot_node_than_plain_bfs(self):
        from repro.experiments import tree_construction_ablation

        results = {r.name: r for r in tree_construction_ablation(n=40, seed=9)}
        bfs, bounded = results["bfs"], results["bfs_bounded"]
        assert bounded.degree < bfs.degree
        assert bounded.detections == bfs.detections
        assert bounded.max_comparisons_per_node < bfs.max_comparisons_per_node

    def test_validation(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            SpanningTree.bfs_bounded(graph, root=9)
        with pytest.raises(ValueError):
            SpanningTree.bfs_bounded(graph, root=0, max_degree=0)
        disconnected = nx.Graph()
        disconnected.add_edge(0, 1)
        disconnected.add_node(2)
        with pytest.raises(ValueError):
            SpanningTree.bfs_bounded(disconnected, root=0)

    def test_chain_unaffected_by_bound(self):
        graph = nx.path_graph(6)
        tree = SpanningTree.bfs_bounded(graph, root=0, max_degree=1)
        assert tree.height == 6
        assert tree.degree == 1
