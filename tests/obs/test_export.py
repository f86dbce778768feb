"""Unit tests: the run exporters (JSONL, Prometheus text, Chrome trace)."""

import io
import json

import numpy as np

from repro.obs import (
    Histogram,
    MetricsRegistry,
    SpanTracker,
    chrome_trace,
    eventlog_to_jsonl,
    prometheus_text,
    write_chrome_trace,
)
from repro.sim import EventLog


def _small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("runs_total", "Completed runs.")
    counter.inc(3)
    vec = registry.counter_vec(
        "sent_total", "Messages sent.", ("plane", "type")
    )
    vec[("control", "Report")] += 2
    vec[("app", "App")] += 5
    gauge = registry.gauge_vec("alpha", "Realized alpha.", ("level",))
    gauge[2] = 0.5
    histogram = registry.histogram("latency", "Latency.", (1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(1.5)
    histogram.observe(9.0)
    return registry


GOLDEN_PROMETHEUS = """\
# HELP alpha Realized alpha.
# TYPE alpha gauge
alpha{level="2"} 0.5
# HELP latency Latency.
# TYPE latency histogram
latency_bucket{le="1"} 1
latency_bucket{le="2"} 2
latency_bucket{le="+Inf"} 3
latency_sum 11
latency_count 3
# HELP runs_total Completed runs.
# TYPE runs_total counter
runs_total 3
# HELP sent_total Messages sent.
# TYPE sent_total counter
sent_total{plane="app",type="App"} 5
sent_total{plane="control",type="Report"} 2
"""


class TestPrometheus:
    def test_golden_exposition(self):
        assert prometheus_text(_small_registry()) == GOLDEN_PROMETHEUS

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        vec = registry.counter_vec("m", "", ("what",))
        vec['say "hi"\n'] += 1
        text = prometheus_text(registry)
        assert r'{what="say \"hi\"\n"}' in text

    def test_float_values_keep_precision(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.1 + 0.2)
        assert f"g {0.1 + 0.2!r}" in prometheus_text(registry)


class TestJsonl:
    def test_round_trips_records(self, tmp_path):
        log = EventLog()
        log.emit(1.0, "detection", node=0, members=7)
        log.emit(2.5, "crash", node=3, peers=frozenset({2, 1}))
        path = tmp_path / "events.jsonl"
        assert eventlog_to_jsonl(log, path) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {
            "time": 1.0, "kind": "detection", "node": 0,
            "fields": {"members": 7},
        }
        assert rows[1]["fields"]["peers"] == [1, 2]  # frozenset -> sorted list

    def test_numpy_payloads_are_coerced(self):
        log = EventLog()
        log.emit(0.0, "tick", node=None, value=np.int64(4), vec=np.arange(2))
        buffer = io.StringIO()
        eventlog_to_jsonl(log, buffer)
        row = json.loads(buffer.getvalue())
        assert row["fields"] == {"value": 4, "vec": [0, 1]}


def _small_tracker() -> SpanTracker:
    tracker = SpanTracker()
    leaf = tracker.record(
        "interval", 1.0, 2.0, node=3, key=("ivl",), owner=3, level=1
    )
    leaf.mark(1.5, "enqueued@P1")
    root = tracker.record("alarm", 4.0, 4.0, node=0, key=("alarm",), level=2)
    tracker.adopt(root, ("ivl",))
    return tracker


class TestChromeTrace:
    def test_document_structure(self):
        document = chrome_trace(_small_tracker())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        by_phase = {}
        for event in events:
            by_phase.setdefault(event["ph"], []).append(event)
        # Metadata rows: one process per level, one thread per node.
        names = {
            (e["name"], e["args"]["name"]) for e in by_phase["M"]
        }
        assert ("process_name", "tree level 1") in names
        assert ("process_name", "tree level 2") in names
        assert ("thread_name", "P3") in names and ("thread_name", "P0") in names
        # Complete events: 1 sim unit = 1000 us.
        interval = next(e for e in by_phase["X"] if e["name"] == "interval")
        assert interval["ts"] == 1000.0 and interval["dur"] == 1000.0
        assert interval["pid"] == 1 and interval["tid"] == 3
        assert interval["args"]["marks"] == [
            {"t": 1.5, "label": "enqueued@P1"}
        ]
        # Flow events pair the child (s) with its parent (f).
        (start,) = by_phase["s"]
        (finish,) = by_phase["f"]
        assert start["id"] == finish["id"] == interval["args"]["sid"]
        assert finish["pid"] == 2 and finish["tid"] == 0

    def test_levels_mapping_fallback(self):
        tracker = SpanTracker()
        tracker.record("interval", 0.0, 1.0, node=7)
        document = chrome_trace(tracker, levels={7: 4})
        interval = next(
            e for e in document["traceEvents"] if e["ph"] == "X"
        )
        assert interval["pid"] == 4

    def test_zero_duration_clamped_visible(self):
        tracker = SpanTracker()
        tracker.record("alarm", 2.0, 2.0, node=0)
        event = next(
            e for e in chrome_trace(tracker)["traceEvents"] if e["ph"] == "X"
        )
        assert event["dur"] == 1.0  # minimum visible width

    def test_write_returns_event_count(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(_small_tracker(), path)
        document = json.loads(path.read_text())
        assert count == len(document["traceEvents"]) > 0


class TestPrometheusHistogramLabels:
    """Bucket lines must render *every* label a histogram sample
    carries — with ``le`` last — not just ``le`` itself."""

    class _LabelledHistogram(Histogram):
        def samples(self):
            for labels, value in super().samples():
                yield {"node": 3, **labels}, value

    def test_bucket_lines_keep_non_le_labels(self):
        registry = MetricsRegistry()
        histogram = self._LabelledHistogram("h", "Help.", (1.0, 2.0))
        histogram.observe(0.5)
        registry._metrics["h"] = histogram
        text = prometheus_text(registry)
        assert 'h_bucket{node="3",le="1"} 1' in text
        assert 'h_bucket{node="3",le="+Inf"} 1' in text
        # le stays last even for labels sorting after it alphabetically.
        assert "le=" in text.splitlines()[2].split(",")[-1]

    def test_unlabelled_histograms_render_unchanged(self):
        registry = MetricsRegistry()
        registry.histogram("h", "", (1.0,)).observe(0.5)
        text = prometheus_text(registry)
        assert 'h_bucket{le="1"} 1' in text


class TestPrometheusEscaping:
    """Label values containing quote, backslash and newline characters
    must escape per the exposition format."""

    def _render(self, value) -> str:
        registry = MetricsRegistry()
        vec = registry.counter_vec("m", "", ("what",))
        vec[value] += 1
        return prometheus_text(registry)

    def test_double_quote(self):
        assert r'{what="a \"b\""}' in self._render('a "b"')

    def test_backslash(self):
        assert r'{what="a\\b"}' in self._render("a\\b")

    def test_newline(self):
        text = self._render("line1\nline2")
        assert r'{what="line1\nline2"}' in text
        # The rendered exposition must stay one sample per line.
        assert all(
            line.startswith(("#", "m")) for line in text.splitlines()
        )

    def test_all_three_combined(self):
        assert r'{what="q\" s\\ n\n"}' in self._render('q" s\\ n\n')


class TestChromeTraceWallClock:
    def test_wall_time_base_scales_seconds_to_microseconds(self):
        tracker = SpanTracker()
        tracker.record("report", 1.5, 2.0, node=1)
        document = chrome_trace(tracker, time_base="wall")
        event = next(e for e in document["traceEvents"] if e["ph"] == "X")
        assert event["ts"] == 1_500_000.0
        assert event["dur"] == 500_000.0

    def test_sim_base_remains_default(self):
        tracker = SpanTracker()
        tracker.record("report", 1.5, 2.0, node=1)
        event = next(
            e for e in chrome_trace(tracker)["traceEvents"] if e["ph"] == "X"
        )
        assert event["ts"] == 1500.0

    def test_unknown_time_base_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            chrome_trace(SpanTracker(), time_base="lunar")

    def test_wall_round_trip_through_file(self, tmp_path):
        tracker = SpanTracker()
        leaf = tracker.record("interval", 0.25, 0.75, node=2, key=("k",))
        alarm = tracker.record("alarm", 1.0, 1.0, node=0)
        tracker.adopt(alarm, ("k",))
        path = tmp_path / "wall.json"
        count = write_chrome_trace(tracker, path, time_base="wall")
        document = json.loads(path.read_text())
        assert count == len(document["traceEvents"])
        assert document == chrome_trace(tracker, time_base="wall")
        interval = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "interval"
        )
        assert interval["ts"] == 250_000.0 and interval["dur"] == 500_000.0
        # The causal flow survives the base change.
        assert any(e["ph"] == "s" for e in document["traceEvents"])
