"""Span identity is ``(owner, seq)`` (``"agg"``-prefixed for aggregates),
never the bounds.

What that must not change — the span table (pinned as hashes computed
at the commit before the key scheme changed, re-recorded when leaves
began forwarding their intervals unwrapped) — and what it must
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
        # Re-recorded when leaves stopped wrapping each interval in a
        # one-part aggregate: the parent's table less the 16 leaf
        # ``report`` rows, each leaf interval taking its report's parent
        # and marks.
        assert len(rows) == 36
        assert digest(rows) == "66302bc320d0cdd7"
        assert digest(spans.render_tree(spans.alarms()[0])) == "7dc23d3215aff279"

    def test_crash_and_rejoin_in_one_shared_tracker(self):
        # Leaf P5 dies at t=60 and rejoins at t=150 with a fresh
        # detector.  It forwards its intervals, and a revived process
        # keeps its interval numbering, so no key repeats in the one
        # tracker (an aggregate numbering restart is covered by
        # TestRejoinedIncarnation).
        result = run_hierarchical(
            SpanningTree.regular(2, 3),
            seed=3,
            config=EpochConfig(epochs=30, sync_prob=0.9),
            failures=[(60.0, 5)],
            revivals=[(150.0, 5)],
            extra_time=60,
        )
        rows = result.sim.telemetry.spans.to_dicts()
        assert not [r for r in rows if r["name"] == "report" and r["node"] == 5]
        seqs = [r["attrs"]["seq"] for r in rows if r["name"] == "interval" and r["node"] == 5]
        assert seqs == list(range(len(seqs)))
        # Re-recorded as above: the parent's 402 rows less 115 leaf
        # ``report`` rows.
        assert len(rows) == 287
        assert digest(rows) == "b9b72b26f4f8a249"


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
        # Re-recorded when leaves stopped wrapping each interval: 16
        # leaf ``report`` rows fewer (4 leaves x 4 epochs), and under
        # each leaf's hop the alarm tree reaches its interval directly.
        assert sum(len(rows) for rows in tables.values()) == 64
        assert digest(_arrival_free(tables)) == "466c86b45554f18e"
        assert len(tree) == 16
        assert sorted(node for _, name, node in tree if name == "interval") == list(range(7))
        assert digest(tree) == "6af10a6cff783028"


# ----------------------------------------------------------------------
# (b) kill -> rejoin: the reborn node's report is not the dead one's
# ----------------------------------------------------------------------
def _kill_and_rejoin(children_of):
    """Run one epoch on a loopback tree (root 0; ``children_of`` maps
    each node to its children), crash-stop P1 and bring it back as a
    fresh runtime (new role, new core) over its surviving telemetry
    island, then run a second epoch.  Returns the per-node scopes."""
    pids = sorted(children_of)
    parent_of = {c: p for p, cs in children_of.items() for c in cs}

    async def scenario():
        clock = AsyncClock()
        hub = LoopbackHub()
        scopes = {pid: clock.scope(pid) for pid in pids}
        detections = []

        def runtime(pid):
            parent = parent_of.get(pid)
            return NodeRuntime(
                pid,
                LoopbackTransport(pid, hub, scopes[pid]),
                scopes[pid],
                parent=parent,
                children=children_of[pid],
                level=0 if parent is None else 1,
                on_detection=detections.append if parent is None else None,
            )

        async def settle(count):
            for _ in range(200):
                if len(detections) >= count:
                    return
                await asyncio.sleep(0.005)
            raise AssertionError(f"expected {count} detections, got {len(detections)}")

        runtimes = {pid: runtime(pid) for pid in pids}
        for node in runtimes.values():
            await node.transport.start()
            node.activate()
        for pid in pids:
            runtimes[pid].offer_local(make_interval(pid, 0, [1] * len(pids), [2] * len(pids)))
        await settle(1)

        await runtimes[1].shutdown()
        runtimes[0].role.child_failed(1)
        runtimes[1] = runtime(1)
        await runtimes[1].transport.start()
        runtimes[1].activate()
        runtimes[0].role.gain_child(1)
        for child in children_of[1]:
            runtimes[child].role.set_parent(1)  # a new attachment epoch
        for pid in pids:
            runtimes[pid].offer_local(make_interval(pid, 1, [3] * len(pids), [4] * len(pids)))
        await settle(2)
        for node in runtimes.values():
            await node.shutdown()
        return scopes

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def _hops_from_1(root):
    hops = [s for s in root.spans if s.name == "hop" and s.attrs["src"] == 1]
    assert [h.parent for h in hops] == [a.sid for a in root.alarms()]
    # each report's queue lifecycle landed on its own hop
    for hop in hops:
        assert [label for _, label in hop.marks] == ["enqueued@P0", "prune_solution@P0"]
    return [(h.attrs["seq"], h.attrs["remote_sid"]) for h in hops]


class TestRejoinedIncarnation:
    def test_reborn_leaf_forward_gets_its_own_hop(self):
        # A leaf forwards each interval under its ``interval`` span, and
        # concrete numbering survives the rebirth: the reborn leaf's
        # first forward is a new key, hopped at the root like any other.
        scopes = _kill_and_rejoin({0: [1, 2], 1: [], 2: []})
        leaf = scopes[1].telemetry.spans
        assert leaf.named("report") == []
        intervals = {s.attrs["seq"]: s.sid for s in leaf.named("interval")}
        assert _hops_from_1(scopes[0].telemetry.spans) == [
            (0, intervals[0]),
            (1, intervals[1]),
        ]

    def test_first_aggregate_after_rejoin_gets_its_own_report_and_hop(self):
        # An internal node's reborn detector numbers its aggregates from
        # 0 again: the same key, told apart by the sender's span.
        scopes = _kill_and_rejoin({0: [1, 2], 1: [3], 2: [], 3: []})
        node = scopes[1].telemetry.spans
        reports = node.named("report")
        assert [s.attrs["seq"] for s in reports] == [0, 0]
        first, reborn = reports
        assert first.sid != reborn.sid
        children = {s.attrs["seq"]: s.parent for s in node.named("interval")}
        assert children == {0: first.sid, 1: reborn.sid}
        assert _hops_from_1(scopes[0].telemetry.spans) == [
            (0, first.sid),
            (0, reborn.sid),
        ]


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
