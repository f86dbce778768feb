"""Unit tests: MonitoredProcess — app events, clocks, interval extraction."""

import networkx as nx
import pytest

from repro.sim import ExecutionTrace, MonitoredProcess, Network, Simulator, uniform_delay


class Recorder:
    """A detector role that keeps every interval its process hands on."""

    def __init__(self):
        self.intervals = []

    def bind(self, process):
        pass

    def on_local_interval(self, interval):
        self.intervals.append(interval)

    def on_control_message(self, src, message):
        pass

    def on_start(self):
        pass


def make_pair():
    """Two linked processes; ``p.role.intervals`` holds each one's
    completed intervals."""
    sim = Simulator(seed=0)
    g = nx.Graph()
    g.add_edge(0, 1)
    net = Network(sim, g, uniform_delay(0.5, 0.6))
    trace = ExecutionTrace(2)
    p0 = MonitoredProcess(0, sim, net, trace, Recorder())
    p1 = MonitoredProcess(1, sim, net, trace, Recorder())
    return sim, net, trace, p0, p1


class TestClockIntegration:
    def test_internal_events_advance_clock(self):
        sim, net, trace, p0, p1 = make_pair()
        assert p0.internal_event().tolist() == [1, 0]
        assert p0.internal_event().tolist() == [2, 0]

    def test_app_message_merges_clocks(self):
        sim, net, trace, p0, p1 = make_pair()
        p1.internal_event()
        p0.send_app(1, "hi")
        sim.run()
        # P1's receive merged P0's [1,0] and ticked its own component.
        assert trace.events[1][-1].timestamp.tolist() == [1, 2]
        assert trace.events[1][-1].kind == "recv"

    def test_control_messages_do_not_touch_app_clock(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.send_control(1, "ctrl")
        sim.run()
        assert p1.clock.peek().tolist() == [0, 0]
        assert trace.events[1] == []


class TestIntervalExtraction:
    def test_simple_interval(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.set_predicate(True)
        p0.internal_event()
        p0.set_predicate(False)
        assert len(p0.role.intervals) == 1
        interval = p0.role.intervals[0]
        assert interval.lo.tolist() == [1, 0]
        assert interval.hi.tolist() == [2, 0]
        assert interval.owner == 0 and interval.seq == 0
        # the process keeps only the count; the trace rebuilds the interval
        assert len(p0.local_intervals) == 1
        assert trace.intervals(0)[0] == interval

    def test_events_during_interval_extend_it(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.set_predicate(True)
        p0.send_app(1, "m")  # send inside the interval
        p0.set_predicate(False)
        assert p0.role.intervals[0].hi.tolist() == [2, 0]

    def test_multiple_intervals_sequence_numbers(self):
        sim, net, trace, p0, p1 = make_pair()
        for _ in range(3):
            p0.set_predicate(True)
            p0.set_predicate(False)
        assert [iv.seq for iv in p0.role.intervals] == [0, 1, 2]
        assert list(p0.local_intervals) == [0, 1, 2]

    def test_interval_reported_to_role(self):
        sim = Simulator()
        g = nx.Graph()
        g.add_node(0)
        net = Network(sim, g)
        trace = ExecutionTrace(1)
        role = Recorder()
        p = MonitoredProcess(0, sim, net, trace, role)
        p.set_predicate(True)
        p.set_predicate(False)
        assert len(role.intervals) == 1

    def test_finish_closes_open_interval(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.set_predicate(True)
        assert p0.role.intervals == []
        p0.finish()
        assert len(p0.role.intervals) == 1

    def test_finish_noop_when_closed(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.set_predicate(True)
        p0.set_predicate(False)
        p0.finish()
        assert len(p0.role.intervals) == 1


class TestCrash:
    def test_crashed_process_rejects_events(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.crash()
        with pytest.raises(RuntimeError):
            p0.internal_event()
        with pytest.raises(RuntimeError):
            p0.send_app(1, "x")

    def test_crashed_process_ignores_deliveries(self):
        sim, net, trace, p0, p1 = make_pair()
        p0.send_app(1, "x")
        p1.crash()
        sim.run()
        assert trace.events[1] == []
