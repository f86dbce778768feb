"""Acceptance test: the cluster observability plane, end to end.

A 7-node **TCP** cluster with a mid-run kill must yield, from real
admin-endpoint scrapes:

(a) a merged registry whose counters equal the sum of the per-node
    scrapes;
(b) at least one alarm whose stitched span tree crosses ≥ 2 nodes and
    reaches concrete leaf intervals;
(c) an event dump (``run --jsonl``'s file) from which ``postmortem``
    reconstructs the kill → repair → next-detection sequence.
"""

import asyncio

from repro.monitor import HeartbeatSpec, SLOSpec
from repro.net import ClusterSpec, LocalCluster
from repro.obs import ClusterScraper, TelemetryAggregator, eventlog_to_jsonl, postmortem


VICTIM = 5


def _spec() -> ClusterSpec:
    return ClusterSpec(
        nodes=7,
        degree=2,
        seed=1,
        transport="tcp",
        # The offer stream must outlive the kill -> repair window (tens
        # of ms on the evidence path, ~0.3 s had only the heartbeat
        # timeout fired): survivors keep producing fresh intervals
        # after the repair applies, so a post-repair detection is
        # guaranteed rather than racing the victim's final report flush.
        interval_spacing=0.05,
        start_delay=0.05,
        repair_latency=0.02,
        heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=5),
        epochs=16,
        admin_port=0,
        # A sub-microsecond p99 target guarantees a breach, exercising
        # the SLO watchdog → cluster log path in the run.
        slo=SLOSpec(detection_latency_p99=1e-6),
    )


async def _scenario():
    cluster = LocalCluster(_spec())
    await cluster.start()
    admin_port = cluster._admin_server.sockets[0].getsockname()[1]
    scraper = ClusterScraper("127.0.0.1", admin_port)

    await cluster.run(until_detections=1, timeout=60)
    before = len(cluster.detections)
    cluster.kill_node(VICTIM)

    deadline = cluster.clock.now + 60
    while VICTIM not in cluster.coordinator.plans:
        assert cluster.clock.now < deadline, "no repair planned"
        await asyncio.sleep(0.01)
    while not any(
        VICTIM not in d.members for d in cluster.detections[before:]
    ):
        assert cluster.clock.now < deadline, "no post-kill detection"
        await asyncio.sleep(0.01)

    # Kill -> repair -> recovery can finish inside one
    # SLO_CHECK_INTERVAL; the watchdog's breach must be on the log
    # before the live scrape below can be expected to carry it.
    while not cluster.log.of_kind("slo_breach"):
        assert cluster.clock.now < deadline, "SLO watchdog never breached"
        await asyncio.sleep(0.01)

    # Scrape over the real admin TCP endpoint while the cluster runs.
    scrape = await scraper.scrape()
    await cluster.stop()
    return cluster, scrape


def test_scrape_merge_stitch_and_postmortem(tmp_path):
    cluster, scrape = asyncio.run(
        asyncio.wait_for(_scenario(), timeout=120)
    )
    view = TelemetryAggregator().fold(scrape)

    # (a) merged counters equal the sum of the per-node scrapes.
    for name in ("repro_net_frames_total", "repro_intervals_total"):
        per_node = sum(
            sum(node.registry.get(name).values())
            for node in scrape.nodes.values()
            if node.registry.get(name) is not None
        )
        assert per_node > 0
        assert sum(view.registry.get(name).values()) == per_node
    assert view.registry.get("repro_cluster_nodes").value == 7
    assert view.registry.get("repro_cluster_alive_nodes").value == 6

    # (b) ≥ 1 alarm stitched across ≥ 2 nodes down to leaf intervals.
    assert view.stitched_hops > 0
    cross = view.cross_node_alarms()
    assert cross
    alarm = cross[0]
    trace_nodes = {
        span.node
        for _, span in view.spans.walk(alarm)
        if span.node is not None
    }
    leaves = [
        span for _, span in view.spans.walk(alarm) if span.name == "interval"
    ]
    assert len(trace_nodes) >= 2 and leaves
    rendered = view.spans.render_tree(alarm)
    assert "interval" in rendered
    # The derived latency histogram came out of the stitched traces.
    assert view.registry.get(
        "repro_cluster_detection_latency_seconds"
    ).count > 0

    # The watchdog breached the (deliberately impossible) latency SLO.
    assert any(e["kind"] == "slo_breach" for e in view.events)

    # (c) the cluster log's dump reconstructs kill → repair → recovery.
    events = tmp_path / "events.jsonl"
    eventlog_to_jsonl(cluster.log, events)
    report = postmortem(events)
    assert any(c["node"] == VICTIM for c in report["crashes"])
    (repair,) = [r for r in report["repairs"] if r["failed"] == VICTIM]
    assert repair["applied_at"] is not None
    assert repair["duration"] is not None and repair["duration"] >= 0
    crash_time = next(
        c["time"] for c in report["crashes"] if c["node"] == VICTIM
    )
    assert crash_time <= repair["planned_at"] <= repair["applied_at"]
    recovered = [d for d in report["detections"] if d["after_repair"]]
    assert recovered
    assert all(d["time"] >= repair["applied_at"] for d in recovered)
    # The breach the watchdog latched reached the dump too.
    assert report["slo_breaches"]
