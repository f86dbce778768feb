"""Acceptance test: the cluster observability plane, end to end.

A 7-node **TCP** cluster with a mid-run kill must yield, from real
admin-endpoint scrapes:

(a) a merged registry whose counters equal the sum of the per-node
    scrapes;
(b) at least one alarm whose stitched span tree crosses ≥ 2 nodes and
    reaches concrete leaf intervals;
(c) a flight snapshot from which ``postmortem`` reconstructs the
    kill → repair → next-detection sequence.
"""

import asyncio

from repro.monitor import HeartbeatSpec, SLOSpec
from repro.net import ClusterSpec, LocalCluster
from repro.obs import ClusterScraper, TelemetryAggregator, postmortem


VICTIM = 5


def _spec(tmp_path) -> ClusterSpec:
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
        flight_dir=str(tmp_path / "flight"),
        # A sub-microsecond p99 target guarantees a breach, exercising
        # the SLO watchdog → flight-recorder trigger path in the run.
        slo=SLOSpec(detection_latency_p99=1e-6),
        slo_check_interval=0.1,
    )


async def _scenario(tmp_path):
    cluster = LocalCluster(_spec(tmp_path))
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
    # slo_check_interval; the watchdog's breach must be on the log
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
        asyncio.wait_for(_scenario(tmp_path), timeout=120)
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

    # (c) the flight snapshots reconstruct kill → repair → recovery.
    report = postmortem(tmp_path / "flight")
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
    # The breach the watchdog latched reached the recorders too.
    assert report["slo_breaches"]


class TestSampledCluster:
    """The same observability plane at ``sample_rate=0.1``: most
    interval spans are head-dropped, yet cross-node alarm traces stay
    complete down to concrete leaf intervals (tail promotion), and the
    socket world's keep/drop decisions match the pure sim-side sampler."""

    def _spec(self, **overrides) -> ClusterSpec:
        base = dict(
            nodes=7,
            degree=2,
            seed=1,
            transport="loopback",
            interval_spacing=0.005,
            start_delay=0.05,
            repair_latency=0.02,
            heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=5),
            epochs=12,
            sample_rate=0.1,
        )
        base.update(overrides)
        return ClusterSpec(**base)

    def test_sampled_traces_still_stitch_to_leaves(self):
        from repro.obs import TraceSampler, scrape_local

        async def scenario():
            cluster = LocalCluster(self._spec())
            await cluster.start()
            await cluster.run(until_detections=2, timeout=60)
            scrape = scrape_local(cluster)
            # Feed one node a batch of intervals that never join a
            # solution (fresh seqs, no further detection traffic): with
            # everything earlier potentially promoted, these guarantee
            # the head decision is actually exercised — including drops.
            import numpy as np

            from repro.intervals import Interval

            victim = max(cluster.scopes)
            tail_tracker = cluster.scopes[victim].telemetry.spans
            bounds = np.ones(7, dtype=np.int64)
            for seq in range(10_000, 10_100):
                tail_tracker.record_interval(
                    Interval(owner=victim, seq=seq, lo=bounds, hi=bounds),
                    0.0,
                    0.0,
                    victim,
                )

            # sim↔socket agreement: a socket node's materialized,
            # *unpromoted* interval spans are exactly the ones the pure
            # decision function keeps — a fresh TraceSampler with the
            # cluster's (rate, seed), as a simulator-side run would
            # construct, reaches the same verdict from the identity key.
            reference = TraceSampler(0.1, seed=1)
            stats = {
                pid: scope.telemetry.spans.stats()
                for pid, scope in cluster.scopes.items()
            }
            agree = drop = 0
            for scope in cluster.scopes.values():
                tracker = scope.telemetry.spans
                materialized = {
                    s.sid for s in tracker.spans if s.name == "interval"
                }
                # Without its sampler the tracker materializes every
                # recorded row, kept or not.
                sampler, tracker.sampler = tracker.sampler, None
                recorded = tracker.spans
                tracker.sampler = sampler
                for span in recorded:
                    if span.name != "interval":
                        continue
                    # The head decision depends only on the key's
                    # leading (owner, seq) integers, recoverable from
                    # the span's identity attrs; promotion (adoption
                    # into an explanation) overrides a head drop.
                    head = reference.keep(
                        (span.attrs["owner"], span.attrs["seq"])
                    )
                    expected = span.parent is not None or head
                    assert expected == (span.sid in materialized), (
                        "socket node disagreed with the sim-side "
                        "sampler's head decision"
                    )
                    agree += 1
                    drop += not expected
            await cluster.stop()
            return scrape, stats, agree, drop

        scrape, stats, agree, drop = asyncio.run(
            asyncio.wait_for(scenario(), timeout=120)
        )
        # The agreement check saw real decisions, including drops.
        assert agree > 0 and drop > 0
        view = TelemetryAggregator().fold(scrape)

        # Sampling actually happened: recorded > materialized somewhere.
        total_recorded = sum(s["recorded"] for s in stats.values())
        total_materialized = sum(s["materialized"] for s in stats.values())
        assert total_recorded > 0
        assert total_materialized < total_recorded

        # … and the stitched plane still explains an alarm end to end.
        cross = view.cross_node_alarms()
        assert cross, "sampled cluster lost its cross-node alarm traces"
        alarm = cross[0]
        trace_nodes = {
            span.node
            for _, span in view.spans.walk(alarm)
            if span.node is not None
        }
        leaves = [
            span
            for _, span in view.spans.walk(alarm)
            if span.name == "interval"
        ]
        assert len(trace_nodes) >= 2 and leaves

    def test_spec_validates_sampling_and_profile_knobs(self):
        import pytest

        with pytest.raises(ValueError):
            self._spec(sample_rate=1.5)
        with pytest.raises(ValueError):
            self._spec(sync_prob=1.5)
        with pytest.raises(ValueError):
            self._spec(node_sample_rates={3: -0.2})
        with pytest.raises(ValueError):
            self._spec(profile_interval=0.0)

    def test_profile_admin_command(self):
        async def scenario():
            cluster = LocalCluster(self._spec(profile=True))
            await cluster.start()
            await cluster.run(until_detections=1, timeout=60)
            response = cluster._admin_dispatch({"cmd": "profile"})
            await cluster.stop()
            return response

        response = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        assert response["ok"]
        from repro.obs import SamplingProfiler

        if SamplingProfiler.available():
            profile = response["profile"]
            assert profile is not None
            assert profile["mode"] == "wall"
            assert profile["samples"] >= 0
            assert isinstance(profile["top"], list)
        else:
            assert response["available"] is False
