"""Integration tests: the experiment harness and runners."""

import pytest

from repro.analysis import centralized_messages
from repro.detect import replay_centralized
from repro.experiments import run_centralized, run_hierarchical
from repro.topology import SpanningTree
from repro.workload import EpochConfig


class TestRunHierarchical:
    def test_detections_sorted_and_complete(self):
        result = run_hierarchical(
            SpanningTree.regular(2, 3),
            seed=1,
            config=EpochConfig(epochs=5, sync_prob=1.0),
        )
        times = [d.time for d in result.detections]
        assert times == sorted(times)
        assert len(result.detections) == 5

    def test_graph_must_contain_tree(self):
        import networkx as nx

        tree = SpanningTree.regular(2, 2)
        graph = nx.path_graph(3)  # missing edge 0-2
        with pytest.raises(ValueError):
            run_hierarchical(tree, graph=graph)

    def test_root_detections_match_offline_replay(self):
        config = EpochConfig(epochs=6, sync_prob=0.6)
        result = run_hierarchical(SpanningTree.regular(2, 3), seed=5, config=config)
        reference = replay_centralized(result.trace, sink=0)
        assert result.metrics.root_detections == len(reference)


class TestRunCentralized:
    def test_message_count_matches_eq12_exactly(self):
        """Every process sends p intervals over depth(p) hops: the
        measured control messages equal Eq. (12) deterministically."""
        p = 6
        for d, h in ((2, 3), (3, 3), (2, 4)):
            result = run_centralized(
                SpanningTree.regular(d, h),
                seed=2,
                config=EpochConfig(epochs=p, sync_prob=0.5),
            )
            assert result.metrics.control_messages == centralized_messages(p, d, h)

    def test_one_shot_variant_detects_once(self):
        result = run_centralized(
            SpanningTree.regular(2, 3),
            seed=1,
            config=EpochConfig(epochs=5, sync_prob=1.0),
            one_shot=True,
        )
        assert len(result.detections) == 1

    def test_same_workload_same_detections_as_hierarchical(self):
        config = EpochConfig(epochs=6, sync_prob=0.7)
        hier = run_hierarchical(SpanningTree.regular(2, 3), seed=3, config=config)
        cent = run_centralized(SpanningTree.regular(2, 3), seed=3, config=config)
        assert hier.metrics.root_detections == len(cent.detections) > 0

    def test_hierarchical_sends_fewer_messages(self):
        config = EpochConfig(epochs=8, sync_prob=0.6)
        for d, h in ((2, 4), (3, 3)):
            hier = run_hierarchical(SpanningTree.regular(d, h), seed=4, config=config)
            cent = run_centralized(SpanningTree.regular(d, h), seed=4, config=config)
            assert hier.metrics.control_messages < cent.metrics.control_messages
