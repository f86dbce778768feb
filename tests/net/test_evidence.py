"""Integration tests: suspicion on evidence vs suspicion on silence.

A crash that closes the victim's listener is suspected from the
survivors' own transports (refused redial on TCP, hub detach on
loopback) before any heartbeat timeout could fire; a failure that
leaves the listener up is still caught by the timeout; a connection
that merely flaps is neither.  And a clean ``stop()`` — which closes
every listener — is silent.
"""

import asyncio

import pytest

from repro.intervals import overlap
from repro.monitor import HeartbeatSpec
from repro.net import (
    ClusterSpec,
    LocalCluster,
    simulation_script,
    solution_signatures,
)

TRANSPORTS = ["loopback", "tcp"]
REPAIR_KINDS = ("suspect", "repair_planned", "repair_applied", "false_suspicion")


def run(coro, timeout=90):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def _spec(**overrides) -> ClusterSpec:
    base = dict(
        nodes=7,
        degree=2,
        seed=1,
        transport="loopback",
        interval_spacing=0.02,
        start_delay=0.05,
        repair_latency=0.02,
        heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=5),
        epochs=24,
    )
    base.update(overrides)
    return ClusterSpec(**base)


def _neighbours(cluster, pid):
    parent = cluster.tree.parent_of(pid)
    return set(cluster.tree.children(pid)) | ({parent} if parent is not None else set())


async def _until_recovered(cluster, victim, before):
    """Wait for the repair of *victim* to apply and for the root to
    announce a detection without it."""
    deadline = cluster.clock.now + 60
    while victim not in cluster.coordinator.durations:
        assert cluster.clock.now < deadline, "repair never applied"
        await asyncio.sleep(0.005)
    while not any(
        d.detector == 0 and victim not in d.members
        for d in cluster.detections[before:]
    ):
        assert cluster.clock.now < deadline, "no post-repair root detection"
        await asyncio.sleep(0.005)


def _assert_survivor_detections_sound(cluster, victim, before):
    fresh = [
        d
        for d in cluster.detections[before:]
        if d.detector == 0 and victim not in d.members
    ]
    assert fresh
    for record in fresh:
        assert overlap(record.solution.concrete_intervals())


class TestCrashIsSuspectedOnEvidence:
    @pytest.mark.parametrize("victim", [5, 1], ids=["leaf", "internal"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_refusal_beats_the_next_heartbeat_tick(self, transport, victim):
        # A 2 s period (timeout 6.4 s): inside this test's lifetime no
        # heartbeat timeout can fire, and a tick is observable as a jump
        # of the suspecting node's heartbeats-sent counter.
        spec = _spec(
            transport=transport,
            heartbeat=HeartbeatSpec(period=2.0, loss_tolerance=3),
        )

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            neighbours = _neighbours(cluster, victim)

            def beats(pid):
                vec = cluster.scopes[pid].telemetry.registry.get(
                    "repro_heartbeats_sent_total"
                )
                return vec[pid] if vec else 0

            suspicions = []
            cluster.log.subscribe(
                "suspect", lambda r: suspicions.append((r, beats(r.node)))
            )
            await cluster.run(until_detections=1, timeout=60)
            before = len(cluster.detections)
            beats_at_kill = {pid: beats(pid) for pid in neighbours}
            killed_at = cluster.clock.now
            cluster.kill_node(victim)
            await _until_recovered(cluster, victim, before)
            await cluster.stop()
            return cluster, neighbours, suspicions, beats_at_kill, killed_at, before

        cluster, neighbours, suspicions, beats_at_kill, killed_at, before = run(
            scenario(), timeout=120
        )
        assert suspicions
        for record, beats_at_suspicion in suspicions:
            assert record.get("peer") == victim
            assert record.get("cause") == "refused"
            # Only tree neighbours suspect, though on TCP every node
            # held a session with the victim and saw the refusal.
            assert record.node in neighbours
            # No tick of that monitor ran between kill and suspicion.
            assert beats_at_suspicion == beats_at_kill[record.node]
            assert record.time - killed_at < 1.0
        assert not cluster.log.of_kind("false_suspicion")
        assert cluster.coordinator.plans[victim].failed == victim
        _assert_survivor_detections_sound(cluster, victim, before)


class TestSilentFailureStillTimesOut:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_hung_node_with_listener_up_is_suspected_by_timeout(self, transport):
        spec = _spec(transport=transport)
        victim = 5

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_detections=1, timeout=60)
            before = len(cluster.detections)
            # The role dies, the sockets stay: frames to the victim are
            # accepted and dropped, its listener still answers dials.
            cluster.runtimes[victim].kill()
            await _until_recovered(cluster, victim, before)
            await cluster.stop()
            return cluster, before

        cluster, before = run(scenario(), timeout=120)
        suspicions = cluster.log.of_kind("suspect")
        assert suspicions
        assert all(r.get("peer") == victim for r in suspicions)
        assert all(r.get("cause") == "timeout" for r in suspicions)
        assert not cluster.log.of_kind("false_suspicion")
        _assert_survivor_detections_sound(cluster, victim, before)


class TestConnectionFlapIsNotACrash:
    def test_reset_connections_redial_without_suspicion(self):
        # Loopback has no connections to reset; this is the TCP case.
        spec = _spec(transport="tcp", epochs=12)
        script = simulation_script(spec.tree(), seed=spec.seed, epochs=spec.epochs)
        assert len(script.reference) > 2

        async def scenario():
            cluster = LocalCluster(spec, script=script)
            await cluster.start()
            for done in (1, 2):
                await cluster.run(until_detections=done, timeout=60)
                # Every inbound connection of every node is reset at
                # once; every listener stays up.
                for runtime in cluster.runtimes.values():
                    for task in list(runtime.transport._inbound):
                        task.cancel()
            await cluster.run(until_detections=len(script.reference), timeout=60)
            await asyncio.sleep(0.2)
            await cluster.stop()
            return cluster

        cluster = run(scenario(), timeout=120)
        assert cluster.log.of_kind("net_connection_lost")
        for kind in REPAIR_KINDS:
            assert not cluster.log.of_kind(kind), kind
        assert solution_signatures(cluster.detections) == solution_signatures(
            script.reference
        )


class TestStopIsSilent:
    @pytest.mark.parametrize("phase", ["clean", "mid-kill", "mid-repair"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_no_suspicion_or_repair_once_stop_is_called(self, transport, phase):
        spec = _spec(transport=transport, repair_latency=0.3)
        victim = 1

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_detections=1, timeout=60)
            if phase != "clean":
                # mid-kill: the victim's teardown is still in flight
                # when stop() begins.
                cluster.kill_node(victim)
            if phase == "mid-repair":
                # ... or it was suspected and a plan is waiting out its
                # repair latency.
                deadline = cluster.clock.now + 60
                while victim not in cluster.coordinator.plans:
                    assert cluster.clock.now < deadline, "no repair planned"
                    await asyncio.sleep(0.005)
            emitted = []
            for kind in REPAIR_KINDS:
                cluster.log.subscribe(kind, emitted.append)
            await cluster.stop()
            # Outlast the heartbeat timeout and the repair latency: any
            # timer the teardown left armed would have fired by now.
            await asyncio.sleep(0.6)
            return cluster, emitted

        cluster, emitted = run(scenario())
        assert [r.kind for r in emitted] == []
        stopped = len(cluster.log.of_kind("node_stopped"))
        assert stopped == (7 if phase == "clean" else 6)
        assert len(cluster.log.of_kind("cluster_stopped")) == 1


class TestKillTeardownHandle:
    def test_stop_awaits_the_kill_teardown_and_surfaces_its_error(self):
        async def scenario():
            cluster = LocalCluster(_spec())
            await cluster.start()

            async def broken_stop():
                raise RuntimeError("listener close failed")

            cluster.runtimes[6].transport.stop = broken_stop
            cluster.kill_node(6)
            with pytest.raises(RuntimeError, match="listener close failed"):
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        # The failure did not cut the teardown short.
        assert len(cluster.log.of_kind("cluster_stopped")) == 1
        assert all(
            not runtime.transport._running
            for pid, runtime in cluster.runtimes.items()
            if pid != 6
        )
