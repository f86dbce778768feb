"""Edge-case tests across the stack."""

import pytest

from repro.experiments import run_hierarchical
from repro.experiments.cli import main as cli_main
from repro.topology import SpanningTree
from repro.workload import EpochConfig


class TestSingleNodeSystem:
    def test_one_node_tree_every_interval_detected(self):
        tree = SpanningTree.regular(1, 1)
        result = run_hierarchical(tree, seed=1, config=EpochConfig(epochs=4))
        assert result.metrics.root_detections == 4
        assert result.metrics.control_messages == 0  # nobody to report to

    def test_two_node_chain(self):
        tree = SpanningTree.regular(1, 2)
        result = run_hierarchical(
            tree, seed=1, config=EpochConfig(epochs=3, sync_prob=1.0)
        )
        assert result.metrics.root_detections == 3
        assert result.metrics.control_messages == 3  # one report per epoch


class TestTreeMutationEdges:
    def test_add_leaf_validation(self):
        tree = SpanningTree.regular(2, 2)
        with pytest.raises(ValueError):
            tree.add_leaf(1, 0)  # already in the tree
        with pytest.raises(ValueError):
            tree.add_leaf(9, 42)  # parent unknown
        tree.add_leaf(9, 2)
        assert tree.parent_of(9) == 2
        assert tree.is_leaf(9)


class TestRejoinEdges:
    def test_rejoin_without_live_neighbour_fails_loudly(self):
        from repro.fault import RejoinManager
        from repro.fault.coordinator import RepairCoordinator
        from repro.sim import ExecutionTrace, MonitoredProcess, Network, Simulator

        # Chain 0-1-2; crash both 1's neighbours, then 1 itself.
        tree = SpanningTree.regular(1, 3)
        graph = tree.as_graph()
        sim = Simulator()
        net = Network(sim, graph)
        trace = ExecutionTrace(3)
        processes = {
            pid: MonitoredProcess(pid, sim, net, trace) for pid in tree.nodes
        }
        coordinator = RepairCoordinator(sim, tree, graph, {}, is_alive=net.is_alive)
        manager = RejoinManager(coordinator, processes)
        for pid in (0, 2, 1):
            processes[pid].crash()
        tree.remove_node(1)
        with pytest.raises(RuntimeError):
            manager.rejoin(1)


class TestCliEdges:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "table1" in capsys.readouterr().out


class TestHeartbeatEdges:
    def test_beat_from_unknown_peer_ignored(self):
        from repro.fault import HeartbeatMonitor
        from repro.sim import Simulator

        sim = Simulator()
        monitor = HeartbeatMonitor(
            sim, 0, lambda d, m: None, lambda p: None, period=1.0, timeout=4.0
        )
        monitor.beat_from(99)  # no crash, no state
        assert monitor.peers == set()

    def test_add_peer_twice_keeps_earliest_window(self):
        from repro.fault import HeartbeatMonitor
        from repro.sim import Simulator

        sim = Simulator()
        monitor = HeartbeatMonitor(
            sim, 0, lambda d, m: None, lambda p: None, period=1.0, timeout=4.0
        )
        monitor.add_peer(1)
        monitor.beat_from(1)
        monitor.add_peer(1)  # must not reset suspicion bookkeeping badly
        assert monitor.peers == {1}
