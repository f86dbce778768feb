"""Unit tests: NodeRuntime hosting an unmodified HierarchicalRole over
the loopback transport."""

import asyncio

import numpy as np

from repro.intervals import Interval
from repro.net import AsyncClock, LoopbackHub, LoopbackTransport, NodeRuntime
from repro.sim.messages import IntervalReport


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def _interval(owner, seq, lo, hi, n=3):
    low = np.zeros(n, dtype=np.int64)
    high = np.zeros(n, dtype=np.int64)
    low[owner], high[owner] = lo, hi
    # Give every interval full causal knowledge so any pair overlaps —
    # the simplest workload that makes Definitely(Φ) fire.
    low[:] = lo
    high[:] = hi
    return Interval(owner=owner, seq=seq, lo=low, hi=high)


def _three_node_cluster(clock, hub, on_detection):
    """Root 0 with leaf children 1 and 2."""
    runtimes = {}
    for pid, (parent, children) in {
        0: (None, [1, 2]),
        1: (0, []),
        2: (0, []),
    }.items():
        transport = LoopbackTransport(pid, hub, clock)
        runtimes[pid] = NodeRuntime(
            pid,
            transport,
            clock,
            parent=parent,
            children=children,
            level=0 if parent is None else 1,
            on_detection=on_detection if parent is None else None,
        )
    return runtimes


class TestEpochSidecar:
    """``_meta_epochs``: epoch ids of an outbound report's concrete
    leaves, resolved through the cluster-attached lookup — bounded,
    sorted, absent without a load session."""

    def _runtime(self):
        clock = AsyncClock()
        transport = LoopbackTransport(0, LoopbackHub(), clock)
        return NodeRuntime(0, transport, clock, parent=None, children=[], level=0)

    def test_absent_without_lookup(self):
        runtime = self._runtime()
        assert runtime.epoch_lookup is None
        assert runtime._meta_epochs(_interval(0, 0, 1, 2)) is None

    def test_aggregate_resolves_leaf_epochs_sorted_distinct(self):
        runtime = self._runtime()
        table = {(0, 0): 4, (1, 0): 2, (2, 0): 2}
        runtime.epoch_lookup = table.get
        parts = tuple(_interval(pid, 0, 1, 2) for pid in (0, 1, 2))
        leaf = parts[0]
        aggregate = Interval(
            owner=0, seq=7, lo=leaf.lo, hi=leaf.hi, parts=parts
        )
        assert runtime._meta_epochs(aggregate) == [2, 4]
        # a concrete interval resolves through its own key
        assert runtime._meta_epochs(parts[1]) == [2]

    def test_unknown_keys_yield_none(self):
        runtime = self._runtime()
        runtime.epoch_lookup = {}.get
        assert runtime._meta_epochs(_interval(1, 9, 1, 2)) is None

    def test_epoch_list_is_bounded(self):
        runtime = self._runtime()
        runtime.epoch_lookup = lambda key: key[1]  # every seq its own epoch
        parts = tuple(
            _interval(1, seq, seq + 1, seq + 2)
            for seq in range(NodeRuntime.META_EPOCH_LIMIT * 3)
        )
        aggregate = Interval(
            owner=0, seq=1, lo=parts[0].lo, hi=parts[-1].hi, parts=parts
        )
        epochs = runtime._meta_epochs(aggregate)
        assert len(epochs) == NodeRuntime.META_EPOCH_LIMIT
        assert epochs == sorted(epochs)


class TestNodeRuntime:
    def test_detection_over_loopback(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            detections = []
            runtimes = _three_node_cluster(clock, hub, detections.append)
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            for pid in (0, 1, 2):
                runtimes[pid].offer_local(_interval(pid, 0, 1, 2))
            for _ in range(20):
                if detections:
                    break
                await asyncio.sleep(0.01)
            for runtime in runtimes.values():
                await runtime.shutdown()
            return clock, detections

        clock, detections = run(scenario())
        assert len(detections) == 1
        assert detections[0].members == frozenset({0, 1, 2})
        # The runtime performed the process layer's span bookkeeping.
        intervals = clock.telemetry.registry.get("repro_intervals_total")
        assert sum(intervals.values()) == 3
        spans = [s for s in clock.telemetry.spans.spans if s.name == "interval"]
        assert len(spans) == 3

    def test_duplicate_report_counted_not_fatal(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            detections = []
            runtimes = _three_node_cluster(clock, hub, detections.append)
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            report = IntervalReport(
                origin=1, dest=0, interval=_interval(1, 0, 1, 2), transport_seq=0
            )
            root = runtimes[0]
            root._on_message(1, report)
            root._on_message(1, report)  # at-least-once replay
            for runtime in runtimes.values():
                await runtime.shutdown()
            return clock

        clock = run(scenario())
        stale = clock.telemetry.registry.get("repro_net_stale_frames_total")
        assert stale[0] == 1
        assert len(clock.log.of_kind("net_stale_frame")) == 1

    def test_report_after_child_removed_is_dropped_and_counted(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            detections = []
            runtimes = _three_node_cluster(clock, hub, detections.append)
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            root = runtimes[0]
            root.role.child_failed(1)  # what a repair does to a dead child
            # The dead child's last report surfaces from a socket buffer
            # only now, its queue and reorder buffer already gone.
            late = IntervalReport(
                origin=1, dest=0, interval=_interval(1, 0, 1, 2), transport_seq=0
            )
            root._on_message(1, late, {"span": [1, 1]})
            hops = [s for s in clock.telemetry.spans.spans if s.name == "hop"]
            for runtime in runtimes.values():
                await runtime.shutdown()
            return clock, detections, hops

        clock, detections, hops = run(scenario())
        assert detections == [] and hops == []
        stale = clock.telemetry.registry.get("repro_net_stale_frames_total")
        assert stale[0] == 1
        (event,) = clock.log.of_kind("net_stale_frame")
        assert event.node == 0 and event.get("src") == 1

    def test_peer_down_reaches_the_monitor_unless_killed(self):
        from repro.monitor import HeartbeatSpec

        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            runtimes = {}
            for pid, (parent, children) in {0: (None, [1]), 1: (0, [])}.items():
                runtimes[pid] = NodeRuntime(
                    pid,
                    LoopbackTransport(pid, hub, clock),
                    clock,
                    parent=parent,
                    children=children,
                    heartbeat=HeartbeatSpec(period=5.0, loss_tolerance=3),
                )
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            root, leaf = runtimes[0], runtimes[1]
            # A dead node takes no evidence, like it takes no frames.
            leaf.kill()
            leaf.transport._peer_down(0)
            assert not leaf.role.monitor.is_suspected(0)
            # A live one suspects its neighbour when the hub loses it.
            await leaf.transport.stop()
            dropped = not root.role.has_child(1)  # standalone handling ran
            await root.shutdown()
            return clock, dropped

        clock, dropped = run(scenario())
        assert dropped
        (event,) = clock.log.of_kind("suspect")
        assert (event.node, event.get("peer"), event.get("cause")) == (0, 1, "refused")

    def test_killed_runtime_ignores_everything(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            runtimes = _three_node_cluster(clock, hub, lambda r: None)
            for runtime in runtimes.values():
                await runtime.transport.start()
                runtime.activate()
            leaf = runtimes[1]
            leaf.kill()
            assert not leaf.alive
            leaf.offer_local(_interval(1, 0, 1, 2))  # swallowed
            leaf.send_control(0, "nope")  # swallowed
            for runtime in runtimes.values():
                await runtime.shutdown()
            return clock

        clock = run(scenario())
        intervals = clock.telemetry.registry.get("repro_intervals_total")
        assert not intervals or intervals[1] == 0
        # The explicit kill is the first crash; shutdown crashes the rest.
        assert clock.log.of_kind("crash")[0].node == 1
