"""Integration tests: the DistributedMonitor façade."""

import networkx as nx
import pytest

from repro.detect import replay_centralized
from repro.monitor import ConjunctivePredicate, DistributedMonitor
from repro.topology import tree_with_chords, SpanningTree


def hot_scenario(monitor, pids, *, hot_at=5.0, cool_at=30.0, value=40.0):
    for i, pid in enumerate(pids):
        monitor.at(hot_at + 0.2 * i, monitor.setter(pid, "temp", value))
        monitor.at(cool_at + 0.2 * i, monitor.setter(pid, "temp", 0.0))


class TestBasicMonitoring:
    def test_alarm_on_global_satisfaction(self):
        graph = nx.path_graph(4)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(4), "temp", gt=30.0), seed=1
        )
        seen = []
        monitor.on_alarm(seen.append)
        hot_scenario(monitor, range(4))
        monitor.enable_gossip(rate=1.0, until=60.0)
        monitor.run(until=120.0)
        assert len(seen) == 1
        assert seen[0].members == frozenset(range(4))
        assert monitor.alarms == seen

    def test_repeated_alarms_for_repeated_episodes(self):
        graph = nx.path_graph(4)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(4), "temp", gt=30.0), seed=1
        )
        hot_scenario(monitor, range(4), hot_at=5.0, cool_at=30.0)
        hot_scenario(monitor, range(4), hot_at=45.0, cool_at=70.0)
        monitor.enable_gossip(rate=1.0, until=90.0)
        monitor.run(until=160.0)
        assert len(monitor.alarms) == 2
        assert all(alarm.members == frozenset(range(4)) for alarm in monitor.alarms)

    def test_no_alarm_when_one_process_stays_cold(self):
        graph = nx.path_graph(3)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(3), "temp", gt=30.0), seed=1
        )
        hot_scenario(monitor, [0, 1])  # process 2 never heats
        monitor.enable_gossip(rate=1.0, until=60.0)
        monitor.run(until=120.0)
        assert monitor.alarms == []

    def test_no_gossip_no_causal_overlap_no_alarm(self):
        """Definitely needs causality: concurrent hot intervals without
        any application messages cannot satisfy it."""
        graph = nx.path_graph(3)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(3), "temp", gt=30.0), seed=1
        )
        hot_scenario(monitor, range(3))
        monitor.run(until=120.0)
        assert monitor.alarms == []

    def test_alarms_match_offline_reference(self):
        graph = nx.cycle_graph(5)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(5), "temp", gt=30.0), seed=3
        )
        hot_scenario(monitor, range(5), hot_at=4.0, cool_at=28.0)
        hot_scenario(monitor, range(5), hot_at=42.0, cool_at=66.0)
        monitor.enable_gossip(rate=1.2, until=90.0)
        monitor.run(until=180.0)
        reference = replay_centralized(monitor.trace, sink=0)
        assert len(monitor.alarms) == len(reference)


class TestGroupAlarms:
    def test_subtree_solutions_reported(self):
        graph = nx.path_graph(4)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(4), "temp", gt=30.0), seed=1
        )
        groups = []
        monitor.on_group_alarm(lambda pid, emission: groups.append(pid))
        hot_scenario(monitor, range(4))
        monitor.enable_gossip(rate=1.0, until=60.0)
        monitor.run(until=120.0)
        # Interior nodes report partial satisfactions before the root's.
        assert 0 in groups
        assert any(pid != 0 for pid in groups)


class TestFaultTolerance:
    def test_monitoring_survives_a_crash(self):
        tree = SpanningTree.regular(2, 3)
        graph = tree_with_chords(tree.as_graph(), extra_edges=8, seed=2)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(7), "temp", gt=30.0), seed=2
        )
        hot_scenario(monitor, range(7), hot_at=5.0, cool_at=30.0)
        monitor.crash(60.0, 1)
        survivors = [p for p in range(7) if p != 1]
        hot_scenario(monitor, survivors, hot_at=120.0, cool_at=150.0)
        monitor.enable_gossip(rate=1.0, until=170.0)
        monitor.run(until=260.0)
        assert any(a.members == frozenset(range(7)) for a in monitor.alarms)
        assert any(a.members == frozenset(survivors) for a in monitor.alarms)


class TestRecovery:
    def test_crash_then_rejoin_restores_full_predicate(self):
        tree = SpanningTree.regular(2, 3)
        graph = tree_with_chords(tree.as_graph(), extra_edges=8, seed=2)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(7), "temp", gt=30.0), seed=2
        )
        hot_scenario(monitor, range(7), hot_at=5.0, cool_at=30.0)
        monitor.crash(60.0, 5)
        monitor.rejoin(120.0, 5)
        hot_scenario(monitor, range(7), hot_at=160.0, cool_at=190.0)
        monitor.enable_gossip(rate=1.0, until=210.0)
        monitor.run(until=300.0)
        full = [a for a in monitor.alarms if a.members == frozenset(range(7))]
        assert len(full) >= 2  # one before the crash, one after the rejoin
        assert monitor.log.of_kind("crash") and monitor.log.of_kind("rejoin")

    def test_log_narrates_the_run(self):
        graph = nx.path_graph(3)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(3), "temp", gt=30.0), seed=1
        )
        hot_scenario(monitor, range(3))
        monitor.enable_gossip(rate=1.0, until=60.0)
        monitor.run(until=120.0)
        assert monitor.log.of_kind("detection")
        assert "detection" in monitor.log.render()


class TestValidation:
    def test_predicate_must_cover_graph(self):
        with pytest.raises(ValueError):
            DistributedMonitor(
                nx.path_graph(3),
                ConjunctivePredicate.threshold(range(2), "x", gt=0),
            )

    def test_updates_to_crashed_process_ignored(self):
        graph = nx.path_graph(2)
        monitor = DistributedMonitor(
            graph, ConjunctivePredicate.threshold(range(2), "x", gt=0), seed=1
        )
        monitor.crash(1.0, 1)
        monitor.at(5.0, monitor.setter(1, "x", 10))
        monitor.run(until=20.0)
        assert monitor.processes[1].variables == {}
