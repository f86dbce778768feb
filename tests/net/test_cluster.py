"""Integration tests: the socket runtime against the simulator.

The headline claims of the ``repro.net`` subsystem:

* replaying a simulator workload's interval streams through a live
  cluster yields the *identical ordered solution set* (the detection
  core is confluent over per-source-ordered interleavings, so any
  divergence would be a networking bug);
* killing a node mid-run triggers real repair (suspicion on the
  transport's evidence, or on heartbeat silence), and detection
  continues over the survivors (the paper's fault-tolerance
  property, on actual transports).

Loopback transports keep these tests free of port races; the TCP path
gets one smaller end-to-end case here and the full 7-node treatment in
CI's ``net-smoke`` job.
"""

import asyncio
import json
import time

import pytest

from repro.monitor import HeartbeatSpec
from repro.net import (
    ClusterSpec,
    LocalCluster,
    simulation_script,
    solution_signatures,
)


def run(coro, timeout=90):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def _spec(**overrides) -> ClusterSpec:
    base = dict(
        nodes=7,
        degree=2,
        seed=1,
        transport="loopback",
        interval_spacing=0.005,
        start_delay=0.05,
        repair_latency=0.02,
        heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=5),
    )
    base.update(overrides)
    return ClusterSpec(**base)


class TestEquivalence:
    def test_socket_solutions_identical_to_simulator(self):
        spec = _spec()
        script = simulation_script(spec.tree(), seed=spec.seed, epochs=spec.epochs)
        assert script.reference, "reference run produced no detections"

        async def scenario():
            cluster = LocalCluster(spec, script=script)
            await cluster.start()
            await cluster.run(
                until_detections=len(script.reference), timeout=60
            )
            # Grace period: fail loudly if the network over-detects.
            await asyncio.sleep(0.2)
            await cluster.stop()
            return cluster

        cluster = run(scenario())
        assert solution_signatures(cluster.detections) == solution_signatures(
            script.reference
        )

    def test_other_seed_and_shape_also_match(self):
        spec = _spec(nodes=10, degree=3, seed=42, epochs=3)
        script = simulation_script(spec.tree(), seed=spec.seed, epochs=spec.epochs)
        assert script.reference

        async def scenario():
            cluster = LocalCluster(spec, script=script)
            await cluster.start()
            await cluster.run(until_detections=len(script.reference), timeout=60)
            await asyncio.sleep(0.2)
            await cluster.stop()
            return cluster

        cluster = run(scenario())
        assert solution_signatures(cluster.detections) == solution_signatures(
            script.reference
        )


class TestKill:
    def test_leaf_kill_repairs_and_detection_continues(self):
        # 50 ms between epochs: at the default 5 ms all eight are offered
        # within 40 ms of the first, and one stall between the first
        # detection and the kill left nothing for the survivors to detect.
        spec = _spec(epochs=8, interval_spacing=0.05)
        victim = 5  # a leaf of the 7-node binary tree

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_detections=1, timeout=60)
            before = len(cluster.detections)
            cluster.kill_node(victim)

            deadline = cluster.clock.now + 60
            while victim not in cluster.coordinator.plans:
                assert cluster.clock.now < deadline, "no repair planned"
                await asyncio.sleep(0.01)
            while not any(
                victim not in d.members for d in cluster.detections[before:]
            ):
                assert cluster.clock.now < deadline, "no post-kill detection"
                await asyncio.sleep(0.01)
            await cluster.stop()
            return cluster, before

        cluster, before = run(scenario(), timeout=120)
        # Pre-kill solutions span everyone; post-kill ones exclude the
        # victim — partial-predicate detection survived the crash.
        assert any(victim in d.members for d in cluster.detections[:before])
        fresh = [d for d in cluster.detections[before:] if victim not in d.members]
        assert fresh
        assert all(d.members <= frozenset({0, 1, 2, 3, 4, 6}) for d in fresh)
        assert cluster.coordinator.plans[victim].failed == victim

    def test_status_reflects_kill(self):
        spec = _spec()

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            cluster.kill_node(6)
            # Read in the same loop step as the kill: no repair can
            # have run yet, however fast suspicion is.
            killed = cluster.status()
            deadline = cluster.clock.now + 60
            while 6 not in cluster.status()["repairs"]:
                assert cluster.clock.now < deadline, "no repair planned"
                await asyncio.sleep(0.01)
            while 6 in cluster.tree.nodes:
                assert cluster.clock.now < deadline, "repair never applied"
                await asyncio.sleep(0.01)
            repaired = cluster.status()
            await cluster.stop()
            return killed, repaired

        killed, repaired = run(scenario())
        assert killed["nodes"] == 7 and killed["repairs"] == []
        assert set(killed["alive"]) == {0, 1, 2, 3, 4, 5}
        # Once the repair applied, the victim has left the tree too.
        assert repaired["nodes"] == 6 and repaired["repairs"] == [6]
        assert set(repaired["alive"]) == {0, 1, 2, 3, 4, 5}
        assert repaired["false_suspicions"] == 0

    def test_each_event_is_logged_once_and_fed_live(self):
        # Every node scope emits into the one cluster log: a subscriber
        # there sees a neighbour heartbeat's suspicion of the victim,
        # and the admin ``eventlog`` command ships each record once.
        spec = _spec(admin_port=0)
        victim = 6

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            suspicions = []
            cluster.log.subscribe("suspect", suspicions.append)
            cluster.kill_node(victim)
            deadline = cluster.clock.now + 60
            while victim in cluster.tree.nodes:
                assert cluster.clock.now < deadline, "repair never applied"
                await asyncio.sleep(0.01)
            port = cluster._admin_server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 24
            )
            writer.write(b'{"cmd": "eventlog"}\n')
            await writer.drain()
            payload = json.loads(await reader.readline())
            logged = [(r.time, r.kind, r.node) for r in cluster.log.records]
            writer.close()
            await writer.wait_closed()
            await cluster.stop()
            return cluster, suspicions, payload, logged

        cluster, suspicions, payload, logged = run(scenario())
        assert suspicions
        for record in suspicions:
            assert record.get("peer") == victim
            assert record.node in cluster.scopes and record.node != victim
        assert payload["ok"] and set(payload) == {"ok", "events"}
        assert [(e["time"], e["kind"], e["node"]) for e in payload["events"]] == logged
        assert len(payload["events"]) == len(logged) > 0


class TestTcpSmall:
    def test_three_node_tcp_cluster_detects(self):
        spec = _spec(nodes=3, transport="tcp", epochs=2)
        script = simulation_script(spec.tree(), seed=spec.seed, epochs=spec.epochs)
        assert script.reference

        async def scenario():
            cluster = LocalCluster(spec, script=script)
            await cluster.start()
            await cluster.run(until_detections=len(script.reference), timeout=60)
            await asyncio.sleep(0.2)
            summary = cluster.wire_summary()
            await cluster.stop()
            return cluster, summary

        cluster, summary = run(scenario(), timeout=120)
        assert solution_signatures(cluster.detections) == solution_signatures(
            script.reference
        )
        registry = cluster.telemetry.registry
        assert sum(registry.get("repro_net_frames_total").values()) > 0
        assert sum(registry.get("repro_net_bytes_sent_total").values()) > 0
        # Every peer hello announced this codec, and the byte accounting
        # saw the hot message type.
        assert summary["codec_version"] == 4
        assert summary["negotiated"]
        assert all(h == {"codec": 4} for h in summary["negotiated"].values())
        assert summary["bytes_by_type"].get("IntervalReport", 0) > 0
        # The census of frame types on the wire: one packed type per
        # message, nothing riding an escape hatch.
        assert set(summary["bytes_by_type"]) == {"Heartbeat", "IntervalReport", "__ack__"}
        # A healthy run never has a decoder hang up on its peer, nor a
        # receiver raise into the transport's catch-all.
        assert not cluster.log.of_kind("net_stream_poisoned")
        assert sum((registry.get("repro_errors_total") or {}).values()) == 0


class TestStartupStall:
    def test_a_stall_after_start_is_not_a_silent_peer(self):
        # Neighbours are added while the nodes are built; a loop that
        # blocks past the suspicion timeout before the monitors' first
        # tick must not read as every peer falling silent.
        spec = _spec(heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=3))
        assert spec.heartbeat.resolved_timeout < 0.3

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            time.sleep(0.3)  # blocking: no tick and no beat runs
            await asyncio.sleep(0.1)
            await cluster.stop()
            return cluster

        cluster = run(scenario())
        assert cluster.log.of_kind("false_suspicion") == []


class TestSpecValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(degree=0)
        with pytest.raises(ValueError):
            ClusterSpec(transport="carrier-pigeon")

    def test_bad_wire_rejected(self):
        for wire in ("telepathy", "json"):
            with pytest.raises(ValueError, match="binary"):
                ClusterSpec(wire=wire)
