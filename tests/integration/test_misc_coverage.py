"""Coverage for smaller paths exercised only indirectly elsewhere."""

import networkx as nx

from repro.clocks import best_encoding, freeze
from repro.experiments.harness import run_centralized, run_hierarchical
from repro.monitor import ConjunctivePredicate, DistributedMonitor
from repro.sim import Network, Simulator, lognormal_delay, uniform_delay
from repro.topology import SpanningTree
from repro.workload import EpochConfig, EpochWorkload, EpochProcess


class TestNetworkEdges:
    def test_enforce_edges_off_allows_any_pair(self):
        sim = Simulator()
        g = nx.path_graph(4)
        net = Network(sim, g, enforce_edges=False)
        got = []
        net.attach(3, lambda src, msg, plane: got.append(msg))
        net.send(0, 3, "direct")  # not a graph edge
        sim.run()
        assert got == ["direct"]

    def test_handler_replacement(self):
        sim = Simulator()
        g = nx.path_graph(2)
        net = Network(sim, g)
        first, second = [], []
        net.attach(1, lambda *a: first.append(a))
        net.attach(1, lambda *a: second.append(a))  # replaces
        net.send(0, 1, "x")
        sim.run()
        assert not first and len(second) == 1

    def test_delivery_to_unattached_node_dropped(self):
        sim = Simulator()
        g = nx.path_graph(2)
        net = Network(sim, g)
        net.send(0, 1, "x")
        sim.run()
        assert net.dropped[("app", "str")] == 1


class TestHarnessVariants:
    def test_one_shot_metrics_fields(self):
        result = run_centralized(
            SpanningTree.regular(2, 2), seed=1,
            config=EpochConfig(epochs=3, sync_prob=1.0), one_shot=True,
        )
        assert result.metrics.root_detections == len(result.detections) == 1
        assert result.metrics.total_comparisons > 0
        assert result.metrics.max_queue_per_node >= 1
        assert result.roles[0].core.halted

    def test_workload_start_time_offsets_everything(self):
        tree = SpanningTree.regular(2, 2)
        result_a = run_hierarchical(tree, seed=4, config=EpochConfig(epochs=2))
        first = result_a.detections[0].time

        # Manual offset run.
        from repro.detect.roles import HierarchicalRole
        from repro.sim import ExecutionTrace

        tree = SpanningTree.regular(2, 2)
        sim = Simulator(seed=4)
        net = Network(sim, tree.as_graph(), uniform_delay(0.5, 1.5))
        trace = ExecutionTrace(tree.n)
        roles = {
            pid: HierarchicalRole(tree.parent_of(pid), tree.children(pid))
            for pid in tree.nodes
        }
        processes = {
            pid: EpochProcess(pid, sim, net, trace, roles[pid], tree)
            for pid in tree.nodes
        }
        workload = EpochWorkload(
            sim, processes, tree, EpochConfig(epochs=2), max_delay=1.5,
            start_time=50.0,
        )
        workload.install()
        for p in processes.values():
            p.start()
        sim.run(until=workload.end_time)
        assert roles[0].detections
        assert roles[0].detections[0].time > 50.0
        assert workload.end_time > 50.0


class TestFacadeVariants:
    def test_custom_delay_model_and_no_heartbeats(self):
        graph = nx.path_graph(3)
        monitor = DistributedMonitor(
            graph,
            ConjunctivePredicate.threshold(range(3), "x", gt=0),
            seed=2,
            delay_model=lognormal_delay(0.5, 0.3),
            heartbeat=None,
        )
        for pid in range(3):
            monitor.at(2.0 + pid * 0.1, monitor.setter(pid, "x", 5))
            monitor.at(30.0 + pid * 0.1, monitor.setter(pid, "x", 0))
        monitor.enable_gossip(rate=1.5, until=40.0)
        monitor.run(until=100.0)
        assert len(monitor.alarms) == 1
        assert all(role.monitor is None for role in monitor.roles.values())


class TestEncodingEdges:
    def test_best_encoding_sparse_beats_differential_after_reset(self):
        # Reference wildly different -> differential pays full price,
        # sparse wins on a nearly-empty vector.
        ts = freeze([0] * 14 + [1, 1])
        ref = freeze(list(range(2, 18)))
        name, entries = best_encoding(ts, ref)
        assert name == "sparse"
        assert entries == 1 + 2 * 2
