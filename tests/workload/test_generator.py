"""Unit tests: the epoch and random workload generators."""

from repro.experiments.harness import run_centralized, run_hierarchical
from repro.sim import ExecutionTrace, MonitoredProcess, Network, Simulator, uniform_delay
from repro.topology import SpanningTree
from repro.workload import EpochConfig, RandomWorkload


class TestEpochWorkload:
    def test_every_process_gets_p_intervals(self):
        tree = SpanningTree.regular(2, 3)
        result = run_hierarchical(
            tree, seed=4, config=EpochConfig(epochs=6, sync_prob=0.5)
        )
        by_proc = result.trace.all_intervals()
        assert all(len(by_proc[p]) == 6 for p in tree.nodes)

    def test_fully_synced_run_detects_every_epoch(self):
        tree = SpanningTree.regular(2, 3)
        result = run_hierarchical(
            tree, seed=4, config=EpochConfig(epochs=7, sync_prob=1.0)
        )
        assert result.metrics.root_detections == 7
        # Every detection covers the full membership.
        for record in result.detections:
            assert record.members == frozenset(tree.nodes)

    def test_zero_sync_detects_rarely_at_root(self):
        tree = SpanningTree.regular(2, 3)
        config = EpochConfig(epochs=8, sync_prob=0.0, defect_frac=0.5)
        result = run_hierarchical(tree, seed=4, config=config)
        assert result.metrics.root_detections < 8
        # Defector-free subtrees may still aggregate below the root.
        defectors = result.workload.defectors_by_epoch
        assert all(d for d in defectors)

    def test_detections_match_ground_truth_count(self):
        """Root detections equal the centralized replay of the same
        trace — the workload machinery does not fool the detectors."""
        from repro.detect import replay_centralized

        tree = SpanningTree.regular(2, 3)
        config = EpochConfig(epochs=6, sync_prob=0.5)
        result = run_hierarchical(tree, seed=9, config=config)
        reference = replay_centralized(result.trace, sink=0)
        assert result.metrics.root_detections == len(reference)

    def test_deterministic_given_seed(self):
        tree = SpanningTree.regular(2, 3)
        config = EpochConfig(epochs=5, sync_prob=0.6)
        a = run_hierarchical(SpanningTree.regular(2, 3), seed=8, config=config)
        b = run_hierarchical(SpanningTree.regular(2, 3), seed=8, config=config)
        assert a.metrics.control_messages == b.metrics.control_messages
        assert [d.time for d in a.detections] == [d.time for d in b.detections]
        c = run_hierarchical(SpanningTree.regular(2, 3), seed=9, config=config)
        assert (
            a.metrics.control_messages != c.metrics.control_messages
            or [d.time for d in a.detections] != [d.time for d in c.detections]
        )

    def test_identical_workload_across_algorithms(self):
        tree_a = SpanningTree.regular(2, 3)
        tree_b = SpanningTree.regular(2, 3)
        config = EpochConfig(epochs=5, sync_prob=0.7)
        hier = run_hierarchical(tree_a, seed=6, config=config)
        cent = run_centralized(tree_b, seed=6, config=config)
        assert hier.metrics.root_detections == cent.metrics.root_detections


class TestRandomWorkload:
    def test_produces_intervals_and_chatter(self):
        tree = SpanningTree.regular(2, 3)
        sim = Simulator(seed=2)
        net = Network(sim, tree.as_graph(), uniform_delay())
        trace = ExecutionTrace(tree.n)
        processes = {
            pid: MonitoredProcess(pid, sim, net, trace) for pid in tree.nodes
        }
        RandomWorkload(sim, processes, duration=80.0, msg_rate=0.4).install()
        sim.run()
        by_proc = trace.all_intervals()
        assert all(len(by_proc[p]) >= 1 for p in tree.nodes)
        assert net.messages_sent("app") > 0

    def test_deterministic(self):
        def run(seed):
            tree = SpanningTree.regular(2, 3)
            sim = Simulator(seed=seed)
            net = Network(sim, tree.as_graph(), uniform_delay())
            trace = ExecutionTrace(tree.n)
            processes = {
                pid: MonitoredProcess(pid, sim, net, trace) for pid in tree.nodes
            }
            RandomWorkload(sim, processes, duration=50.0).install()
            sim.run()
            return trace.event_count(), net.messages_sent()

        assert run(3) == run(3)
