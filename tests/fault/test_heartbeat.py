"""Unit tests: heartbeat-based failure detection."""

import networkx as nx
import pytest

from repro.fault import HeartbeatMonitor
from repro.sim import Heartbeat, Network, Simulator, uniform_delay


def make_monitors(n=2, period=2.0, timeout=7.0):
    sim = Simulator(seed=1)
    net = Network(sim, nx.complete_graph(n), uniform_delay(0.1, 0.3))
    monitors = {}
    suspects = {pid: [] for pid in range(n)}

    for pid in range(n):
        def send(dst, msg, src=pid):
            net.send(src, dst, msg, plane="control")

        monitors[pid] = HeartbeatMonitor(
            sim, pid, send, suspects[pid].append, period=period, timeout=timeout
        )

    for pid in range(n):
        def handler(src, msg, plane, me=pid):
            if isinstance(msg, Heartbeat):
                monitors[me].beat_from(msg.sender)

        net.attach(pid, handler)
    return sim, net, monitors, suspects


class TestHeartbeats:
    def test_live_peers_never_suspected(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[1].add_peer(0)
        monitors[0].start()
        monitors[1].start()
        sim.run(until=60.0)
        assert suspects[0] == [] and suspects[1] == []

    def test_crashed_peer_suspected_within_timeout(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[1].add_peer(0)
        monitors[0].start()
        monitors[1].start()
        sim.schedule_at(20.0, lambda: net.fail(1))
        sim.run(until=60.0)
        assert suspects[0] == [1]
        assert monitors[0].is_suspected(1)

    def test_suspicion_fires_once(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()  # peer 1 never answers (no monitor started)
        sim.run(until=100.0)
        assert suspects[0] == [1]

    def test_removed_peer_not_suspected(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()
        sim.schedule_at(3.0, lambda: monitors[0].remove_peer(1))
        sim.run(until=60.0)
        assert suspects[0] == []

    def test_added_peer_gets_grace_period(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].start()
        monitors[1].add_peer(0)
        monitors[1].start()
        # Add peer late: last_seen initialized to "now", not 0.
        sim.schedule_at(30.0, lambda: monitors[0].add_peer(1))
        sim.run(until=33.0)
        assert suspects[0] == []

    def test_grace_starts_at_the_first_tick_not_at_add_peer(self):
        # The peer is added at t=0 but the monitor only starts at t=20,
        # past a whole timeout: that wait is the host's, not the peer's.
        sim, net, monitors, suspects = make_monitors(timeout=16.0)
        ticks = []
        send = monitors[0]._send
        monitors[0]._send = lambda dst, msg: (ticks.append(sim.now), send(dst, msg))
        monitors[0].add_peer(1)  # peer 1 never answers
        sim.schedule_at(20.0, monitors[0].start)
        sim.run(until=20.0 + monitors[0].period)
        assert len(ticks) == 1 and suspects[0] == []
        # Silence after that first tick is still suspected, one timeout on.
        sim.run(until=ticks[0] + 16.0 + monitors[0].period)
        assert suspects[0] == [1]
        (record,) = sim.log.of_kind("suspect")
        assert ticks[0] + 16.0 < record.time <= ticks[0] + 16.0 + monitors[0].period
        assert record.get("last_seen") == round(ticks[0], 3)

    def test_timeout_must_exceed_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, 0, lambda d, m: None, lambda p: None,
                             period=5.0, timeout=5.0)

    def test_forgiven_peer_is_suspected_again_after_fresh_silence(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()  # peer 1 never answers
        sim.run(until=10.0)
        assert suspects[0] == [1]
        monitors[0].forgive(1)
        assert not monitors[0].is_suspected(1)
        # Grace restarts at the forgiveness: no suspicion inside it ...
        sim.run(until=10.0 + 7.0 - 0.5)
        assert suspects[0] == [1]
        # ... and the continued silence is suspected a second time.
        sim.run(until=30.0)
        assert suspects[0] == [1, 1]
        assert [r.get("peer") for r in sim.log.of_kind("suspect")] == [1, 1]

    def test_forgiving_a_non_neighbour_is_ignored(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].forgive(1)
        assert monitors[0].peers == set()

    def test_stop_halts_ticks(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()
        monitors[0].stop()
        sim.run(until=60.0)
        assert suspects[0] == []


class TestPeerDownEvidence:
    """``peer_down`` is one more caller of the suspicion the tick
    declares: same callback, same counter, same event — only earlier,
    and only for a watched, not-yet-suspected peer of a running
    monitor."""

    def _suspicions(self, sim):
        return [(r.node, r.get("peer"), r.get("cause")) for r in sim.log.of_kind("suspect")]

    def test_evidence_suspects_a_watched_peer_at_once(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()
        monitors[0].peer_down(1)
        assert suspects[0] == [1] and monitors[0].is_suspected(1)
        assert self._suspicions(sim) == [(0, 1, "refused")]
        assert sim.telemetry.registry.get("repro_suspicions_total")[0] == 1
        # The timeout reaches the same peer later and adds nothing.
        sim.run(until=60.0)
        assert suspects[0] == [1]
        assert sim.telemetry.registry.get("repro_suspicions_total")[0] == 1

    def test_timeout_suspicion_names_its_cause(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].start()  # peer 1 never answers
        sim.run(until=60.0)
        assert self._suspicions(sim) == [(0, 1, "timeout")]
        monitors[0].peer_down(1)  # already suspected: ignored
        assert suspects[0] == [1]

    def test_evidence_about_a_non_neighbour_is_ignored(self):
        sim, net, monitors, suspects = make_monitors(n=3)
        monitors[0].add_peer(1)
        monitors[0].start()
        monitors[0].peer_down(2)
        monitors[0].remove_peer(1)
        monitors[0].peer_down(1)  # no longer a neighbour
        assert suspects[0] == [] and not sim.log.of_kind("suspect")

    def test_evidence_to_a_stopped_monitor_is_ignored(self):
        sim, net, monitors, suspects = make_monitors()
        monitors[0].add_peer(1)
        monitors[0].peer_down(1)  # never started
        monitors[0].start()
        monitors[0].stop()
        monitors[0].peer_down(1)
        assert suspects[0] == [] and not sim.log.of_kind("suspect")
