"""Unit tests: cluster scraping, registry merging and trace stitching.

These tests hand-build scrape payloads (telemetry islands as a real
deployment would serve them) — :mod:`repro.obs.cluster` must work from
the JSON wire forms alone, with no :mod:`repro.net` import.
"""

import asyncio
import json

import pytest

from repro.obs import (
    ClusterScrape,
    ClusterScraper,
    MetricsRegistry,
    TelemetryAggregator,
    scrape_local,
)


def _leaf_registry() -> MetricsRegistry:
    """A level-1 node: intervals in, reports out."""
    registry = MetricsRegistry()
    registry.counter("repro_net_frames_sent_total").inc(10)
    registry.counter_vec("repro_reports_total", "", ("level",))[1] += 2
    registry.counter_vec("repro_detect_enqueued_total", "", ("level",))[1] += 4
    registry.counter_vec("repro_intervals_total", "", ("node",))[1] += 4
    return registry


def _root_registry() -> MetricsRegistry:
    """A level-2 root: reports in, alarms out."""
    registry = MetricsRegistry()
    registry.counter("repro_net_frames_sent_total").inc(6)
    registry.counter_vec("repro_alarms_total", "", ("level",))[2] += 1
    registry.counter_vec("repro_detect_enqueued_total", "", ("level",))[2] += 2
    return registry


def _span_row(sid, name, node, *, parent=None, start=1.0, end=2.0, **attrs):
    return {
        "sid": sid, "name": name, "node": node, "start": start, "end": end,
        "parent": parent, "attrs": attrs, "marks": [],
    }


def _payload() -> dict:
    """A two-node cluster mid-run: node 1 (leaf) reported an interval up
    to node 0 (root), which announced an alarm.  Node 1's table has the
    interval *before* the report that adopted it (parent sid > child
    sid), and node 0 recorded a ``hop`` placeholder for the inbound
    report — the stitcher must join them."""
    return {
        "status": {
            "alive": [0, 1],
            "levels": {"0": 2, "1": 1},
            "detections": 1,
            "repairs": [],
            "false_suspicions": 0,
            "uptime": 3.5,
        },
        "telemetry": {
            "nodes": {"0": _root_registry().to_dict(),
                      "1": _leaf_registry().to_dict()},
            "cluster": None,
        },
        "spans": {
            "nodes": {
                "0": [
                    _span_row(0, "alarm", 0, start=3.0, end=3.0, level=2),
                    _span_row(1, "hop", 0, parent=0, start=2.5, end=2.5,
                              remote_node=1, remote_sid=1),
                ],
                "1": [
                    _span_row(0, "interval", 1, parent=1, start=1.0, end=2.0),
                    _span_row(1, "report", 1, start=2.0, end=2.0, level=1),
                ],
            },
        },
        "eventlog": {
            # The cluster log, in emission order: records can share a
            # time, and two identical records are two events.
            "events": [
                {"time": 0.0, "kind": "cluster_started", "node": None,
                 "fields": {}},
                {"time": 1.0, "kind": "tick", "node": 1, "fields": {}},
                {"time": 3.0, "kind": "repair_applied", "node": 1,
                 "fields": {"failed": 2}},
                {"time": 3.0, "kind": "detection", "node": 0,
                 "fields": {"index": 0}},
                {"time": 3.0, "kind": "detection", "node": 0,
                 "fields": {"index": 0}},
            ],
        },
    }


class TestClusterScrape:
    def test_from_payload_parses_islands(self):
        scrape = ClusterScrape.from_payload(_payload())
        assert sorted(scrape.nodes) == [0, 1]
        leaf = scrape.nodes[1]
        assert leaf.alive and leaf.level == 1
        assert leaf.registry.get("repro_net_frames_sent_total").value == 10
        assert len(leaf.spans) == 2
        assert len(scrape.events) == 5
        assert scrape.cluster_registry is None

    def test_dead_node_and_missing_level(self):
        payload = _payload()
        payload["status"]["alive"] = [0]
        del payload["status"]["levels"]["1"]
        scrape = ClusterScrape.from_payload(payload)
        assert not scrape.nodes[1].alive
        assert scrape.nodes[1].level is None

    def test_scrape_local_round_trips_through_json(self):
        class _FakeCluster:
            def scrape_payload(self):
                return _payload()

        scrape = scrape_local(_FakeCluster())
        assert sorted(scrape.nodes) == [0, 1]
        # the payload went through json.dumps/loads — tuple keys etc.
        # would have failed loudly here.
        assert scrape.status["uptime"] == 3.5


class TestAggregatorRegistries:
    def test_merged_counters_equal_sum_of_islands(self):
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(_payload()))
        assert view.registry.get("repro_net_frames_sent_total").value == 16
        reports = view.registry.get("repro_reports_total")
        assert sum(reports.values()) == 2

    def test_cluster_registry_folds_last(self):
        payload = _payload()
        extra = MetricsRegistry()
        extra.counter("repro_net_frames_sent_total").inc(1)
        payload["telemetry"]["cluster"] = extra.to_dict()
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(payload))
        assert view.registry.get("repro_net_frames_sent_total").value == 17


class TestAggregatorSpans:
    def _view(self):
        return TelemetryAggregator().fold(ClusterScrape.from_payload(_payload()))

    def test_sids_renumbered_contiguously(self):
        view = self._view()
        assert [span.sid for span in view.spans.spans] == [0, 1, 2, 3]
        assert [span.name for span in view.spans.spans] == [
            "alarm", "hop", "interval", "report",
        ]

    def test_intra_node_parent_remapped_even_when_parent_sid_larger(self):
        view = self._view()
        interval = next(s for s in view.spans.spans if s.name == "interval")
        report = next(s for s in view.spans.spans if s.name == "report")
        assert interval.parent == report.sid

    def test_hop_stitches_remote_report(self):
        view = self._view()
        assert view.stitched_hops == 1
        hop = next(s for s in view.spans.spans if s.name == "hop")
        report = next(s for s in view.spans.spans if s.name == "report")
        assert report.parent == hop.sid
        assert view.registry.get("repro_cluster_stitched_hops").value == 1

    def test_alarm_trace_reaches_remote_leaf(self):
        view = self._view()
        (alarm,) = view.alarms()
        walked = [span.name for _, span in view.spans.walk(alarm)]
        assert walked == ["alarm", "hop", "report", "interval"]
        (cross,) = view.cross_node_alarms()
        assert cross is alarm
        tree = view.spans.render_tree(alarm)
        assert "interval" in tree and "hop" in tree

    def test_hop_to_unknown_remote_is_skipped(self):
        payload = _payload()
        payload["spans"]["nodes"]["0"][1]["attrs"]["remote_sid"] = 99
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(payload))
        assert view.stitched_hops == 0
        assert view.cross_node_alarms() == []

    def test_first_parent_wins_over_stitching(self):
        payload = _payload()
        # The report already has a local parent — the stitcher must not
        # overwrite it.
        payload["spans"]["nodes"]["1"][1]["parent"] = 0
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(payload))
        assert view.stitched_hops == 0


class TestAggregatorEventsAndMetrics:
    def _view(self):
        return TelemetryAggregator().fold(ClusterScrape.from_payload(_payload()))

    def test_events_keep_emission_order(self):
        events = self._view().events
        assert events == _payload()["eventlog"]["events"]

    def test_cluster_detection_latency_recomputed(self):
        view = self._view()
        # alarm at t=3.0, newest leaf interval opened at t=1.0.
        assert view.cluster_detection_latencies() == [2.0]
        histogram = view.registry.get(
            "repro_cluster_detection_latency_seconds"
        )
        assert histogram.count == 1 and histogram.sum == 2.0

    def test_alpha_by_level(self):
        alpha = self._view().alpha_by_level()
        assert alpha == {1: 0.5, 2: 0.5}
        vec = self._view().registry.get("repro_cluster_realized_alpha")
        assert vec[1] == 0.5 and vec[2] == 0.5

    def test_liveness_gauges(self):
        payload = _payload()
        payload["status"]["alive"] = [0]
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(payload))
        assert view.registry.get("repro_cluster_nodes").value == 2
        assert view.registry.get("repro_cluster_alive_nodes").value == 1

    def test_status_table_rows_and_summary(self):
        table = self._view().status_table()
        lines = table.splitlines()
        assert lines[0].split() == [
            "node", "lvl", "alive", "ivls", "alarms", "reports",
            "reconn", "outbox", "stale",
        ]
        node1 = next(l for l in lines if l.split()[:1] == ["1"])
        assert node1.split() == ["1", "1", "yes", "4", "0", "2", "0", "0", "0"]
        assert "cross-node alarms: 1" in table
        assert "L1=0.50" in table and "L2=0.50" in table

    def test_status_table_marks_dead_nodes(self):
        payload = _payload()
        payload["status"]["alive"] = [0]
        del payload["status"]["levels"]["1"]
        view = TelemetryAggregator().fold(ClusterScrape.from_payload(payload))
        node1 = next(
            l for l in view.status_table().splitlines()
            if l.split()[:1] == ["1"]
        )
        assert node1.split()[1:3] == ["-", "DEAD"]


class TestClusterScraper:
    """Drive the poller against a fake newline-JSON admin server."""

    def _serve(self, responses):
        async def handler(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                body = responses(request["cmd"])
                writer.write(json.dumps(body).encode() + b"\n")
                await writer.drain()
            writer.close()

        return handler

    def test_scrape_parses_all_four_commands(self):
        payload = _payload()

        def responses(cmd):
            if cmd == "status":
                return {"ok": True, **payload["status"]}
            if cmd == "epochs":
                # a cluster without a load session
                return {"ok": True, "epochs": None}
            return {"ok": True, **payload[cmd]}

        async def run():
            server = await asyncio.start_server(
                self._serve(responses), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                scrape = await ClusterScraper("127.0.0.1", port).scrape()
            finally:
                server.close()
                await server.wait_closed()
            return scrape

        scrape = asyncio.run(run())
        assert sorted(scrape.nodes) == [0, 1]
        assert scrape.status["detections"] == 1
        view = TelemetryAggregator().fold(scrape)
        assert view.stitched_hops == 1

    def test_error_response_raises(self):
        def responses(cmd):
            return {"ok": False, "error": "nope"}

        async def run():
            server = await asyncio.start_server(
                self._serve(responses), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                await ClusterScraper("127.0.0.1", port).scrape()
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(RuntimeError, match="nope"):
            asyncio.run(run())

    def test_large_response_exceeds_default_line_limit(self):
        """A long run's span table overflows asyncio's 64 KiB default
        readline limit — the scraper must raise it."""
        payload = _payload()
        pad = [
            _span_row(sid, "interval", 1, start=0.0, end=0.0)
            for sid in range(2, 4000)
        ]
        payload["spans"]["nodes"]["1"] = (
            payload["spans"]["nodes"]["1"] + pad
        )
        assert len(json.dumps(payload["spans"])) > 64 * 1024

        def responses(cmd):
            if cmd == "status":
                return {"ok": True, **payload["status"]}
            if cmd == "epochs":
                # a cluster without a load session
                return {"ok": True, "epochs": None}
            return {"ok": True, **payload[cmd]}

        async def run():
            server = await asyncio.start_server(
                self._serve(responses), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                return await ClusterScraper("127.0.0.1", port).scrape()
            finally:
                server.close()
                await server.wait_closed()

        scrape = asyncio.run(run())
        assert len(scrape.nodes[1].spans) == 4000
