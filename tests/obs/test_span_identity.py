"""Span identity is ``(owner, seq)`` (``"agg"``-prefixed for aggregates),
never the bounds.

What that must not change — the span table (pinned as hashes computed
at the commit before the key scheme changed) — and what it must
change: the telemetry plane copies no
timestamp, so a tracker costs the same at any system size, and a reborn
detector (aggregate numbering back at 0) gets spans of its own because
the registry is latest-wins and a hop is deduplicated by the sender's
span coordinates, not because two bounds happened to differ.
"""

import asyncio
import gc
import hashlib
import json
import tracemalloc

import numpy as np

from repro.experiments import run_hierarchical
from repro.intervals import Interval
from repro.monitor import HeartbeatSpec
from repro.net import (
    AsyncClock,
    ClusterSpec,
    LocalCluster,
    LoopbackHub,
    LoopbackTransport,
    NodeRuntime,
)
from repro.obs import SpanTracker, interval_key
from repro.topology import SpanningTree
from repro.workload import EpochConfig

from ..conftest import make_interval


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# (a) golden span tables
# ----------------------------------------------------------------------
class TestGoldenSimTable:
    def test_seeded_run_table_and_first_alarm_tree(self):
        result = run_hierarchical(
            SpanningTree.regular(2, 3), seed=3, config=EpochConfig(epochs=4, sync_prob=0.8)
        )
        spans = result.sim.telemetry.spans
        rows = spans.to_dicts()
        assert len(rows) == 52
        assert digest(rows) == "279c7e816af899b3"
        assert digest(spans.render_tree(spans.alarms()[0])) == "f4683b6c152c7a26"

    def test_crash_and_rejoin_in_one_shared_tracker(self):
        # P5 dies at t=60 and rejoins at t=150 with a fresh detector:
        # its aggregate seqs run 0..3, then 0..20 again, in one tracker.
        # Latest-wins registration must give every later report the
        # parent, marks and sid the bounds-keyed table gave it.
        result = run_hierarchical(
            SpanningTree.regular(2, 3),
            seed=3,
            config=EpochConfig(epochs=30, sync_prob=0.9),
            failures=[(60.0, 5)],
            revivals=[(150.0, 5)],
            extra_time=60,
        )
        rows = result.sim.telemetry.spans.to_dicts()
        seqs = [r["attrs"]["seq"] for r in rows if r["name"] == "report" and r["node"] == 5]
        assert seqs[:6] == [0, 1, 2, 3, 0, 1], "scenario must restart P5's numbering"
        assert len(rows) == 402
        assert digest(rows) == "64aa3f24d5f3e9f8"


def _ident(row):
    attrs = row["attrs"]
    return [
        row["name"], row["node"], attrs.get("owner"), attrs.get("seq"),
        attrs.get("index"), attrs.get("src"),
    ]


def _arrival_free(tables):
    """Per-node span tables with sids replaced by span identities: the
    order in which frames reach a node's tracker is wall-clock luck,
    what each span is, holds and hangs under is not."""
    by_sid = {
        (pid, row["sid"]): _ident(row) for pid, rows in tables.items() for row in rows
    }
    out = []
    for pid, rows in tables.items():
        for row in rows:
            attrs = {
                k: v
                for k, v in row["attrs"].items()
                if k not in ("latency", "remote_sid", "remote_node")
            }
            remote = by_sid.get(
                (row["attrs"].get("remote_node"), row["attrs"].get("remote_sid"))
            )
            out.append(
                [
                    _ident(row),
                    by_sid.get((pid, row["parent"])),
                    remote,
                    attrs,
                    sorted(label for _, label in row["marks"]),
                ]
            )
    return sorted(out, key=json.dumps)


class TestGoldenClusterTable:
    # The stitched cross-node alarm must unfold to one concrete leaf
    # interval on every node.
    def test_loopback_cluster_tables_and_stitched_alarm(self):
        spec = ClusterSpec(
            nodes=7,
            degree=2,
            seed=1,
            transport="loopback",
            interval_spacing=0.02,
            start_delay=0.05,
            heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=20),
            epochs=4,
        )

        async def scenario():
            cluster = LocalCluster(spec)
            await cluster.start()
            await cluster.run(until_detections=4, timeout=60)
            await asyncio.sleep(0.1)
            tables = {
                pid: scope.telemetry.spans.to_dicts()
                for pid, scope in sorted(cluster.scopes.items())
            }
            stitched = cluster.view().telemetry.spans
            alarm = stitched.alarms()[0]
            tree = sorted((d, s.name, s.node) for d, s in stitched.walk(alarm))
            await cluster.stop()
            return tables, tree

        tables, tree = asyncio.run(asyncio.wait_for(scenario(), timeout=90))
        assert sum(len(rows) for rows in tables.values()) == 80
        assert digest(_arrival_free(tables)) == "0c7d5ab14a8a8cd6"
        assert len(tree) == 20
        assert sorted(node for _, name, node in tree if name == "interval") == list(range(7))
        assert digest(tree) == "dfd56744b7037105"


# ----------------------------------------------------------------------
# (b) kill -> rejoin: the reborn node's aggregate 0 is not the dead one's
# ----------------------------------------------------------------------
class TestRejoinedIncarnation:
    def test_first_aggregate_after_rejoin_gets_its_own_report_and_hop(self):
        async def scenario():
            clock = AsyncClock()
            hub = LoopbackHub()
            scopes = {pid: clock.scope(pid) for pid in (0, 1, 2)}
            detections = []

            def runtime(pid, parent, children):
                return NodeRuntime(
                    pid,
                    LoopbackTransport(pid, hub, scopes[pid]),
                    scopes[pid],
                    parent=parent,
                    children=children,
                    level=0 if parent is None else 1,
                    on_detection=detections.append if parent is None else None,
                )

            async def settle(count):
                for _ in range(200):
                    if len(detections) >= count:
                        return
                    await asyncio.sleep(0.005)
                raise AssertionError(f"expected {count} detections, got {len(detections)}")

            runtimes = {0: runtime(0, None, [1, 2]), 1: runtime(1, 0, []), 2: runtime(2, 0, [])}
            for node in runtimes.values():
                await node.transport.start()
                node.activate()
            for pid in (0, 1, 2):
                runtimes[pid].offer_local(make_interval(pid, 0, [1] * 3, [2] * 3))
            await settle(1)

            # P1 crashes; the root drops its queue; P1 comes back as a
            # fresh runtime (new role, new core: aggregate seq 0 again)
            # over the node's surviving telemetry island.
            await runtimes[1].shutdown()
            runtimes[0].role.child_failed(1)
            runtimes[1] = runtime(1, 0, [])
            await runtimes[1].transport.start()
            runtimes[1].activate()
            runtimes[0].role.gain_child(1)
            for pid in (0, 1, 2):
                runtimes[pid].offer_local(make_interval(pid, 1, [3] * 3, [4] * 3))
            await settle(2)
            for node in runtimes.values():
                await node.shutdown()
            return scopes

        scopes = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        leaf = scopes[1].telemetry.spans
        root = scopes[0].telemetry.spans

        reports = [s for s in leaf.spans if s.name == "report"]
        assert [s.attrs["seq"] for s in reports] == [0, 0]
        first, reborn = reports
        assert first.sid != reborn.sid
        children = {s.attrs["seq"]: s.parent for s in leaf.spans if s.name == "interval"}
        assert children == {0: first.sid, 1: reborn.sid}

        hops = [s for s in root.spans if s.name == "hop" and s.attrs["src"] == 1]
        assert [(h.attrs["seq"], h.attrs["remote_sid"]) for h in hops] == [
            (0, first.sid),
            (0, reborn.sid),
        ]
        alarms = root.alarms()
        assert [h.parent for h in hops] == [a.sid for a in alarms]
        # the reborn aggregate's queue lifecycle landed on its own hop
        assert [label for _, label in hops[1].marks] == ["enqueued@P0", "prune_solution@P0"]
        assert [label for _, label in hops[0].marks] == ["enqueued@P0", "prune_solution@P0"]


# ----------------------------------------------------------------------
# (c) the telemetry plane copies no timestamp
# ----------------------------------------------------------------------
def _retained_bytes_per_interval(n, count=1500):
    lo = np.arange(n, dtype=np.int64)
    intervals = [Interval(owner=1, seq=i, lo=lo + i, hi=lo + i + 1) for i in range(count)]
    aggregates = [
        Interval(owner=1, seq=i, lo=iv.lo, hi=iv.hi, parts=(iv,))
        for i, iv in enumerate(intervals)
    ]
    tracker = SpanTracker()
    # Earlier tests' cyclic garbage, and what its finalizers allocate,
    # is not this tracker's: collect it first and keep the collector
    # out of the measured window.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for interval, aggregate in zip(intervals, aggregates):
            tracker.record_interval(interval, 0.0, 1.0, 1)
            tracker.mark_interval(interval, 0.5, "enqueued", 1)
            report = tracker.record(
                "report", 1.0, 1.0, node=1, key=interval_key(aggregate), seq=aggregate.seq
            )
            tracker.adopt(report, interval_key(interval))
            tracker.mark_interval(aggregate, 1.5, "enqueued", 0)
        assert len(tracker.to_dicts()) == 2 * count
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(iv._key_cache is None for iv in intervals + aggregates)
    return (after - before) / count


class TestNoTimestampCopies:
    def test_tracker_bytes_per_interval_do_not_grow_with_system_size(self):
        # CPython's tuple free list hands out part of a call's keys
        # without a traced allocation, depending on what ran before; a
        # first run leaves both measured calls in the same state.
        _retained_bytes_per_interval(8)
        small = _retained_bytes_per_interval(8)
        large = _retained_bytes_per_interval(128)
        # bounds-in-key cost 2 x 8n bytes per interval: +1.9 kB at n=128
        assert abs(large - small) <= 0.10 * small, (small, large)

    def test_traced_sim_run_never_builds_an_interval_key(self):
        result = run_hierarchical(
            SpanningTree.regular(2, 3), seed=3, config=EpochConfig(epochs=4, sync_prob=0.8)
        )
        spans = result.sim.telemetry.spans
        assert spans.alarms() and spans.render_tree(spans.alarms()[0])
        seen = 0
        for record in result.detections:
            stack = [record.aggregate]
            while stack:
                interval = stack.pop()
                assert interval._key_cache is None, interval
                stack.extend(interval.parts)
                seen += 1
        assert seen > 7 * len(result.detections)
