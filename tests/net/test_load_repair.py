"""Integration: traffic keeps flowing through a mid-run crash + repair.

The load plane's fault-tolerance story on a real transport: a 7-node TCP
cluster under open-loop traffic loses a leaf mid-run.  Its parent's
transport sees the redial refused, the monitor suspects it, the tree
repairs, dispatch drops the dead target immediately, the
admission gate sheds (never deadlocks) while the victim's pending offers
clog the window, the pending sweep reaps them as ``dead-target``, and
the epoch ledger books the waste with that cause.  Detection on the
admitted subset stays sound: every full-membership live solution is a
prefix of the centralized replay.
"""

import asyncio

from repro.load import LoadSpec, solution_keyset
from repro.monitor import HeartbeatSpec
from repro.net import ClusterSpec, LocalCluster


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


NODES = 7
VICTIM = 5  # a leaf of the 7-node binary tree


def _spec() -> ClusterSpec:
    return ClusterSpec(
        nodes=NODES,
        degree=2,
        seed=1,
        transport="tcp",
        wire="binary",
        repair_latency=0.02,
        heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=3),
        load=LoadSpec(
            mode="open",
            rate=800.0,
            total_offers=160,
            max_outstanding=14,
            resume_outstanding=7,
            pending_timeout=1.5,
            start_delay=0.05,
        ),
    )


class TestLoadThroughRepair:
    def test_kill_mid_run_sheds_strands_and_stays_sound(self):
        async def scenario():
            cluster = LocalCluster(_spec())
            await cluster.start()
            session = cluster.load_session

            # Crash the victim at the worst possible instant: between
            # an offer's admission and its interval reaching the
            # victim's detector — the race the pending sweep's
            # dead-target classification exists for.  Trigger it mid-
            # run, once healthy traffic is established.
            killed = asyncio.Event()
            original = cluster.runtimes[VICTIM].offer_local
            admitted_at_kill = [0]

            def offer_and_maybe_crash(interval):
                if not killed.is_set() and session.counts["admitted"] > 20:
                    cluster.kill_node(VICTIM)
                    admitted_at_kill[0] = session.admitted_by_target().get(
                        VICTIM, 0
                    )
                    killed.set()
                    # the node is dead: the submit below is a no-op and
                    # this admitted offer stays pending until the sweep
                    # reaps it with its target gone
                original(interval)

            cluster.runtimes[VICTIM].offer_local = offer_and_maybe_crash

            deadline = asyncio.get_running_loop().time() + 60
            while not killed.is_set():
                assert (
                    asyncio.get_running_loop().time() < deadline
                ), "victim never received admitted work"
                await asyncio.sleep(0.002)

            # Real suspicion-driven repair must fire.
            while VICTIM not in cluster.coordinator.plans:
                assert (
                    asyncio.get_running_loop().time() < deadline
                ), "no repair planned"
                await asyncio.sleep(0.01)

            await cluster.run(until_load_drained=True, timeout=90)
            summary = cluster.load_summary()
            detections = list(cluster.detections)
            admitted_after = session.admitted_by_target().get(VICTIM, 0)
            full = [
                d
                for d in detections
                if len(solution_keyset(d.solution)) == NODES
            ]
            prefix_ok = session.reference_match(full, allow_prefix=True)
            errors = cluster.telemetry.registry.get("repro_errors_total") or {}
            await cluster.stop()
            poisoned = cluster.log.of_kind("net_stream_poisoned")
            return summary, admitted_at_kill[0], admitted_after, prefix_ok, poisoned, errors

        summary, admitted_at_kill, admitted_after, prefix_ok, poisoned, errors = run(
            scenario()
        )

        # A kill closes connections; it never makes a decoder refuse a
        # frame (reconnect churn from a codec bug would show here), nor a
        # receiver raise into the transport's catch-all (a ledger or core
        # bug would be swallowed there but counted).
        assert not poisoned
        assert sum(errors.values()) == 0

        # Dispatch dropped the dead target the instant it died.
        assert admitted_after == admitted_at_kill

        # The per-offer identity survives the crash, and the gate shed
        # while the victim's pending offers pinned the window open.
        assert summary["offered"] == 160
        assert summary["offered"] == summary["admitted"] + summary["shed"]
        assert summary["shed"] > 0
        assert summary["outstanding"] == 0

        # The sweep reaped the victim's pending work as dead-target, and
        # the ledger attributes the stranded epoch(s) to it.
        assert summary["abandoned"] > 0
        assert summary["expired_by_reason"].get("dead-target", 0) > 0
        epochs = summary["epochs"]
        assert epochs["admitted_epochs"] == (
            epochs["solved"] + epochs["stranded"] + epochs["in_flight"]
        )
        assert epochs["in_flight"] == 0
        assert epochs["stranded"] > 0
        assert epochs["stranded_by_cause"].get("dead-target", 0) > 0

        # Soundness on the admitted subset: everything detected with
        # full membership agrees with the centralized replay, in order.
        assert prefix_ok
