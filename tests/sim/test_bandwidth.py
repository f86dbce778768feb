"""Unit tests: message-size (bandwidth) accounting."""

import numpy as np

from repro.clocks import freeze
from repro.intervals import Interval
from repro.sim.messages import AppMessage, Heartbeat, IntervalReport, payload_entries


def interval(n=4):
    return Interval(owner=0, seq=0, lo=np.zeros(n, dtype=np.int64) + 1,
                    hi=np.zeros(n, dtype=np.int64) + 2)


class TestPayloadEntries:
    def test_app_message_is_piggyback_plus_payload(self):
        msg = AppMessage("x", freeze([1, 2, 3]))
        assert payload_entries(msg) == 4

    def test_interval_report_is_two_bounds(self):
        msg = IntervalReport(origin=0, dest=1, interval=interval(8))
        assert payload_entries(msg) == 2 * 8 + 3

    def test_heartbeat_is_constant(self):
        assert payload_entries(Heartbeat(sender=3)) == 2

    def test_report_size_independent_of_provenance(self):
        """Aggregated intervals ship only their bounds: the wire size of
        a report does not grow with the number of aggregated parts —
        the entire point of the ⊓ operator."""
        from repro.intervals import aggregate

        parts = []
        los = np.zeros((3, 4), dtype=np.int64)
        for i in range(3):
            lo = los[i] + 1
            parts.append(Interval(owner=i, seq=0, lo=lo, hi=lo + 5))
        agg = aggregate(parts, owner=9, seq=0)
        single = IntervalReport(origin=9, dest=0, interval=parts[0])
        nested = IntervalReport(origin=9, dest=0, interval=agg)
        assert payload_entries(single) == payload_entries(nested)


class TestNetworkBandwidth:
    def test_bandwidth_counted_per_hop(self):
        import networkx as nx

        from repro.sim import Network, Simulator

        sim = Simulator()
        g = nx.path_graph(4)
        net = Network(sim, g)
        net.attach(3, lambda *a: None)
        msg = IntervalReport(origin=0, dest=3, interval=interval(4))
        net.send_routed([0, 1, 2, 3], msg)
        sim.run()
        assert net.bandwidth_entries("control") == 3 * payload_entries(msg)

    def test_hierarchical_cheaper_than_centralized_in_volume_too(self):
        from repro.experiments import run_centralized, run_hierarchical
        from repro.topology import SpanningTree
        from repro.workload import EpochConfig

        config = EpochConfig(epochs=6, sync_prob=0.8)
        hier = run_hierarchical(SpanningTree.regular(2, 4), seed=2, config=config)
        cent = run_centralized(SpanningTree.regular(2, 4), seed=2, config=config)
        assert hier.network.bandwidth_entries("control") < cent.network.bandwidth_entries(
            "control"
        )
