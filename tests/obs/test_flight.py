"""Unit tests: the postmortem over a run's event dump — the crash →
repair → recovery story ``repro-cluster postmortem`` prints."""

from repro.obs.export import (
    event_dict,
    eventlog_to_jsonl,
    load_events,
    postmortem,
    render_postmortem,
)
from repro.sim import EventLog


def _events(log):
    return [event_dict(record) for record in log.records]


class TestPostmortem:
    def _story(self):
        """A cluster log living through crash → repair → recovery."""
        log = EventLog()
        log.emit(1.0, "detection", node=0, members=7, index=0)
        log.emit(2.0, "crash", node=5)
        log.emit(2.5, "repair_planned", node=3, failed=5)
        log.emit(3.0, "repair_applied", node=5, failed=5, duration=0.5)
        log.emit(3.5, "slo_breach", node=None, slo="detection_latency_p99",
                 value=0.012, threshold=0.01)
        log.emit(4.0, "detection", node=0, members=6, index=1)
        return log

    def test_report_reconstructs_crash_repair_recovery(self):
        report = postmortem(_events(self._story()))
        assert report["events"] == 6
        (crash,) = report["crashes"]
        assert crash["time"] == 2.0 and crash["node"] == 5
        (repair,) = report["repairs"]
        assert repair == {
            "failed": 5, "planned_at": 2.5, "applied_at": 3.0,
            "duration": 0.5,
        }
        (breach,) = report["slo_breaches"]
        assert breach["fields"]["slo"] == "detection_latency_p99"
        pre, post = report["detections"]
        assert not pre["after_repair"] and post["after_repair"]

    def test_timeline_deduplicates_shared_events(self):
        # A node's log and the cluster's both hold the node's events
        # (scoped clocks forward them); given both streams, the
        # timeline holds each record once, in time order.
        node_log = EventLog()
        node_log.emit(2.0, "crash", node=5)
        node_log.emit(0.5, "tick", node=5)
        timeline = postmortem(_events(node_log) + _events(self._story()))["timeline"]
        assert sum(1 for e in timeline if e["kind"] == "crash") == 1
        assert len(timeline) == 7
        assert [e["time"] for e in timeline] == sorted(e["time"] for e in timeline)

    def test_jsonl_round_trip_gives_the_same_report(self, tmp_path):
        log = self._story()
        path = tmp_path / "events.jsonl"
        assert eventlog_to_jsonl(log, path) == 6
        assert load_events(path) == _events(log)
        assert postmortem(path) == postmortem(_events(log))
        assert postmortem(str(path)) == postmortem(_events(log))

    def test_unapplied_repair_reported_open(self):
        log = EventLog()
        log.emit(1.0, "crash", node=2)
        log.emit(1.5, "repair_planned", node=0, failed=2)
        (repair,) = postmortem(_events(log))["repairs"]
        assert repair["applied_at"] is None and repair["duration"] is None

    def test_render_is_human_readable(self):
        text = render_postmortem(postmortem(_events(self._story())))
        assert "events: 6" in text
        assert "crash    t=2.000s node=5" in text
        assert "repair   failed=5" in text
        assert "(took 500 ms)" in text
        assert "slo      t=3.500s detection_latency_p99" in text
        assert "1 after the last repair" in text

    def test_render_respects_limit(self):
        log = EventLog()
        for i in range(10):
            log.emit(float(i), "detection", node=0, members=3, index=i)
        text = render_postmortem(postmortem(_events(log)), limit=2)
        assert text.count("detect   ") == 2
        assert "detections: 10 total" in text
