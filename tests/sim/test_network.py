"""Unit tests: the simulated network (non-FIFO channels, routing,
crash drops, message accounting)."""

import networkx as nx
import pytest

from repro.sim import Network, Simulator, exponential_delay, uniform_delay


def line_graph(n=4):
    g = nx.Graph()
    g.add_edges_from((i, i + 1) for i in range(n - 1))
    return g


def make_net(graph=None, delay=None, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, graph or line_graph(), delay or uniform_delay(0.5, 1.5))
    return sim, net


class TestOneHop:
    def test_delivery_to_handler(self):
        sim, net = make_net()
        got = []
        net.attach(1, lambda src, msg, plane: got.append((src, msg, plane)))
        net.send(0, 1, "hello", plane="app")
        sim.run()
        assert got == [(0, "hello", "app")]

    def test_edge_enforcement(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.send(0, 2, "no-link")

    def test_non_fifo_possible(self):
        """With variable delays, later sends can overtake earlier ones."""
        sim, net = make_net(delay=exponential_delay(1.0), seed=3)
        got = []
        net.attach(1, lambda src, msg, plane: got.append(msg))
        for i in range(40):
            net.send(0, 1, i)
        sim.run()
        assert sorted(got) == list(range(40))
        assert got != sorted(got)  # at least one overtake at this seed

    def test_counters(self):
        sim, net = make_net()
        net.attach(1, lambda *a: None)
        net.send(0, 1, "x", plane="app")
        net.send(0, 1, "y", plane="control")
        sim.run()
        assert net.messages_sent() == 2
        assert net.messages_sent("app") == 1
        assert net.messages_sent("control") == 1
        assert net.per_node_sent[0] == 2


class TestRouting:
    def test_routed_message_counts_every_hop(self):
        sim, net = make_net()
        got = []
        net.attach(3, lambda src, msg, plane: got.append((src, msg)))
        net.send_routed([0, 1, 2, 3], "report")
        sim.run()
        assert got == [(0, "report")]  # src is the origin, not the last hop
        assert net.messages_sent("control") == 3  # 3 hops = 3 messages

    def test_route_too_short(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.send_routed([0], "x")

    def test_dead_intermediate_drops(self):
        sim, net = make_net()
        got = []
        net.attach(3, lambda src, msg, plane: got.append(msg))
        net.fail(1)
        net.send_routed([0, 1, 2, 3], "report")
        sim.run()
        assert got == []


class TestCrashes:
    def test_dead_sender_sends_nothing(self):
        sim, net = make_net()
        got = []
        net.attach(1, lambda src, msg, plane: got.append(msg))
        net.fail(0)
        net.send(0, 1, "x")
        sim.run()
        assert got == [] and net.messages_sent() == 0

    def test_dead_receiver_drops_in_flight(self):
        sim, net = make_net()
        got = []
        net.attach(1, lambda src, msg, plane: got.append(msg))
        net.send(0, 1, "x")
        net.fail(1)  # crash before delivery
        sim.run()
        assert got == []
        assert net.dropped[("app", "str")] == 1

    def test_is_alive(self):
        sim, net = make_net()
        assert net.is_alive(0)
        net.fail(0)
        assert not net.is_alive(0)


class TestDeterminism:
    def test_same_seed_same_delivery_order(self):
        def run(seed):
            sim, net = make_net(delay=exponential_delay(1.0), seed=seed)
            got = []
            net.attach(1, lambda src, msg, plane: got.append(msg))
            for i in range(20):
                net.send(0, 1, i)
            sim.run()
            return got

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestWireEncoding:
    """IntervalReport bandwidth accounting through the WireCodec."""

    @staticmethod
    def _report(origin, dest, seq, lo, hi, iv_seq=None):
        import numpy as np

        from repro.intervals import Interval
        from repro.sim import IntervalReport

        interval = Interval(
            owner=origin,
            seq=seq if iv_seq is None else iv_seq,
            lo=np.array(lo),
            hi=np.array(hi),
        )
        return IntervalReport(
            origin=origin, dest=dest, interval=interval, transport_seq=seq
        )

    def test_disabled_by_default_uses_raw_entries(self):
        from repro.sim.messages import payload_entries

        sim, net = make_net()
        assert net.codec is None
        report = self._report(0, 1, 0, [1, 0, 0, 0], [2, 0, 0, 0])
        net.send(0, 1, report, plane="control")
        assert net.bandwidth_entries("control") == payload_entries(report)

    def test_first_report_uses_sparse_then_differential(self):
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(), uniform_delay(), wire_encoding=True)
        # Mostly-zero bounds: sparse beats raw (2n+3 = 19 for n=8).
        first = self._report(0, 1, 0, [1] + [0] * 7, [2] + [0] * 7)
        net.send(0, 1, first, plane="control")
        first_cost = net.bandwidth_entries("control")
        assert first_cost < 19
        # Next report on the channel differs in one component per bound:
        # differential is 1 + 2 entries per bound, + 3 header.
        second = self._report(0, 1, 1, [3] + [0] * 7, [4] + [0] * 7)
        net.send(0, 1, second, plane="control")
        assert net.bandwidth_entries("control") - first_cost == (1 + 2) * 2 + 3

    def test_routed_report_encoded_once_charged_per_hop(self):
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(4), uniform_delay(), wire_encoding=True)
        report = self._report(0, 3, 0, [1, 0, 0, 0], [2, 0, 0, 0])
        net.send_routed([0, 1, 2, 3], report, plane="control")
        sim.run()
        assert net.codec.encoded_reports == 1
        assert net.codec.memo_hits == 2  # hops 2 and 3 reuse the price
        per_hop = net.bandwidth_entries("control") // 3
        assert net.bandwidth_entries("control") == 3 * per_hop

    def test_references_are_per_channel(self):
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(4), uniform_delay(), wire_encoding=True)
        net.send(0, 1, self._report(0, 1, 0, [5] * 4, [6] * 4), plane="control")
        dense_first = net.bandwidth_entries("control")
        assert dense_first == 2 * 4 + 3  # dense vectors: raw wins
        # A different origin->dest pair must not see channel (0,1)'s
        # reference: its first report prices from scratch.
        net.send(1, 2, self._report(1, 2, 0, [5] * 4, [6] * 4), plane="control")
        assert net.bandwidth_entries("control") == 2 * dense_first

    def test_repricing_after_vector_width_change(self):
        # Membership grew between two reports on one channel: the old
        # bounds are no reference for the wider vectors, so the report
        # prices from scratch instead of failing on a shape mismatch.
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(), uniform_delay(), wire_encoding=True)
        narrow = self._report(0, 1, 0, [3, 0, 0, 0], [4, 0, 0, 0])
        wide = self._report(0, 1, 1, [3, 0, 0, 0, 0, 0], [4, 0, 0, 0, 0, 0])
        again = self._report(0, 1, 2, [3, 0, 0, 0, 0, 1], [4, 0, 0, 0, 0, 1])
        costs = []
        for report in (narrow, wide, again):
            before = net.bandwidth_entries("control")
            net.send(0, 1, report, plane="control")
            costs.append(net.bandwidth_entries("control") - before)
        fresh = Network(
            Simulator(seed=0), line_graph(), uniform_delay(), wire_encoding=True
        )
        fresh.send(0, 1, wide, plane="control")
        assert costs[1] == fresh.bandwidth_entries("control") == (1 + 2) * 2 + 3
        # ...and the chain resumes at the new width: one changed component.
        assert costs[2] == (1 + 2) * 2 + 3

    def test_recycled_transport_seq_is_never_a_memo_hit(self):
        # transport_seq restarts at 0 on a re-attachment; the memo holds
        # the interval it priced, so the recycled key reprices.
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(), uniform_delay(), wire_encoding=True)
        net.send(0, 1, self._report(0, 1, 0, [5] * 4, [6] * 4), plane="control")
        recycled = self._report(0, 1, 0, [7, 0, 0, 0], [8, 0, 0, 0], iv_seq=9)
        net.send(0, 1, recycled, plane="control")
        assert net.codec.encoded_reports == 2 and net.codec.memo_hits == 0

    def test_delivery_payload_untouched(self):
        sim = Simulator(seed=0)
        net = Network(sim, line_graph(), uniform_delay(), wire_encoding=True)
        got = []
        net.attach(1, lambda src, message, plane: got.append(message))
        report = self._report(0, 1, 0, [1, 0], [2, 0])
        net.send(0, 1, report, plane="control")
        sim.run()
        assert got == [report]  # accounting only; the object rides through
