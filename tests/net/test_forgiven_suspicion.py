"""Regression: a forgiven suspicion must not blind the suspecting node.

A loop stall longer than the heartbeat timeout makes every node suspect
its live neighbours; the cluster coordinator forgives each of those
suspicions (``false_suspicion``).  The suspecting monitors must then
watch those peers again — otherwise a later *real* crash of one of them
is never reported, by silence or by evidence, and no repair is planned.
"""

import asyncio
import time

import pytest

from repro.monitor import HeartbeatSpec
from repro.net import ClusterSpec, LocalCluster


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def _spec(transport: str) -> ClusterSpec:
    return ClusterSpec(
        nodes=7,
        degree=2,
        seed=1,
        transport=transport,
        repair_latency=0.02,
        heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=3),
    )


async def _stall_then_kill(transport: str, victim: int):
    cluster = LocalCluster(_spec(transport))
    tree = cluster.tree
    neighbours = set(tree.children(victim)) | {tree.parent_of(victim)}
    await cluster.start()
    try:
        # Let every monitor tick (a stall before the first tick is the
        # host's own startup, not a peer's silence), then block the
        # loop for longer than the 0.16 s suspicion timeout.
        await asyncio.sleep(0.1)
        time.sleep(0.3)
        await asyncio.sleep(0.3)
        forgiven = {
            (r.node, r.get("suspect"))
            for r in cluster.log.of_kind("false_suspicion")
        }
        cluster.kill_node(victim)
        deadline = cluster.clock.now + 5.0
        while victim not in cluster.coordinator.plans:
            if cluster.clock.now > deadline:
                break
            await asyncio.sleep(0.01)
        planned = victim in cluster.coordinator.plans
    finally:
        await cluster.stop()
    return forgiven, neighbours, planned


@pytest.mark.parametrize(
    "transport, victim",
    [("loopback", 5), ("loopback", 2), ("tcp", 5)],
    ids=["loopback-leaf", "loopback-internal", "tcp-leaf-refused-redial"],
)
def test_crash_after_a_forgiven_suspicion_is_repaired(transport, victim):
    forgiven, neighbours, planned = run(_stall_then_kill(transport, victim))
    # The stall really made a neighbour suspect the victim, and the
    # coordinator forgave it ...
    assert any(
        reporter in neighbours and suspect == victim
        for reporter, suspect in forgiven
    ), forgiven
    # ... yet the victim's later crash is still suspected and repaired.
    assert planned, f"no repair of node {victim} within 5 s of the kill"
