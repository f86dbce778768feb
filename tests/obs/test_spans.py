"""Unit + integration tests: causal span tracing.

The integration half runs the real hierarchical detector over a
two-internal-level tree and asserts the alarm's causal ancestry reaches
the concrete leaf intervals — the tentpole guarantee of the tracing
layer.
"""

import gc

from repro.experiments import run_hierarchical
from repro.obs import SpanTracker, interval_key
from repro.topology import SpanningTree
from repro.workload import EpochConfig


class TestSpanTracker:
    def test_record_and_lookup(self):
        tracker = SpanTracker()
        span = tracker.record("interval", 1.0, 2.0, node=3, key=("k",), owner=3)
        assert tracker.get(("k",)) is span
        assert span.duration == 1.0
        assert span.attrs["owner"] == 3

    def test_adopt_first_parent_wins(self):
        tracker = SpanTracker()
        child = tracker.record("interval", 0.0, 1.0, key=("c",))
        first = tracker.record("report", 2.0, 2.0, key=("p1",))
        second = tracker.record("report", 3.0, 3.0, key=("p2",))
        assert tracker.adopt(first, ("c",))
        assert not tracker.adopt(second, ("c",))
        assert child.parent == first.sid
        assert tracker.children_of(first) == [child]
        assert tracker.children_of(second) == []

    def test_adopt_unknown_key_and_self(self):
        tracker = SpanTracker()
        span = tracker.record("report", 0.0, 0.0, key=("a",))
        assert not tracker.adopt(span, ("missing",))
        assert not tracker.adopt(span, ("a",))  # never self-parent

    def test_marks_and_walk(self):
        tracker = SpanTracker()
        root = tracker.record("alarm", 5.0, 5.0, key=("r",))
        leaf = tracker.record("interval", 1.0, 2.0, key=("l",))
        leaf.mark(1.5, "enqueued@P0")
        tracker.adopt(root, ("l",))
        assert [(d, s.name) for d, s in tracker.walk(root)] == [
            (0, "alarm"),
            (1, "interval"),
        ]
        assert "enqueued@P0" in tracker.render_tree(root)

    def test_interval_key_namespaces_by_aggregation(self):
        # A leaf's first aggregate wraps concrete interval (owner, 0):
        # same owner, same seq, distinct keys.
        concrete = _FakeInterval(0, 1)
        aggregate = _FakeInterval(0, 1, parts=(concrete,))
        assert interval_key(concrete) == (0, 1)
        assert interval_key(aggregate) == ("agg", 0, 1)


class _FakeInterval:
    """Minimal interval surface for tracker tests: identity + parts.
    It has no ``key`` method: the telemetry plane must name an interval
    without the one that copies both timestamps."""

    def __init__(self, owner, seq, parts=()):
        self.owner = owner
        self.seq = seq
        self.parts = parts


class TestColumnarTable:
    """Every record and mark lands in the columns when it is made."""

    def test_recorded_interval_is_readable_at_once(self):
        tracker = SpanTracker()
        ivl = _FakeInterval(1, 0)
        tracker.record_interval(ivl, 0.0, 1.0, 1)
        tracker.mark_interval(ivl, 0.5, "enqueued", 1)
        spans = tracker.spans
        assert [s.name for s in spans] == ["interval"]
        assert spans[0].marks == [(0.5, "enqueued@P1")]
        assert tracker.get(interval_key(ivl)) is spans[0]

    def test_sids_follow_call_order(self):
        tracker = SpanTracker()
        tracker.record_interval(_FakeInterval(1, 0), 0.0, 1.0, 1)
        report = tracker.begin("report", 2.0, node=0, key=("rep", 1))
        tracker.record_interval(_FakeInterval(1, 1), 2.5, 3.0, 1)
        # The interval recorded just before the report holds the lower
        # sid and is adoptable by it right away.
        assert report.sid == 1
        assert tracker.adopt(report, interval_key(_FakeInterval(1, 0)))
        assert [(s.sid, s.name, s.parent) for s in tracker.spans] == [
            (0, "interval", 1),
            (1, "report", None),
            (2, "interval", None),
        ]

    def test_sid_lookups_read_the_columns_without_a_view(self):
        tracker = SpanTracker()
        ivl = _FakeInterval(1, 0)
        tracker.record_interval(ivl, 0.0, 1.0, 1)
        report = tracker.record_sid("report", 1.0, 1.0, node=0, key=("agg", 0, 0), seq=0)
        hop = tracker.record_sid(
            "hop", 2.0, 2.0, node=9, key=(0, 5), remote_node=0, remote_sid=7
        )
        assert (report, hop) == (1, 2)
        assert tracker.sid_of(interval_key(ivl)) == 0
        assert tracker.sid_of(("agg", 0, 0)) == report
        assert tracker.sid_of(("agg", 0, 1)) is None
        assert tracker.lookup(interval_key(ivl)) == (0, "interval", {"owner": 1, "seq": 0})
        assert tracker.lookup((0, 5)) == (2, "hop", {"remote_node": 0, "remote_sid": 7})
        assert tracker.lookup((0, 6)) is None
        assert not tracker._views  # no Span view was built
        # adopt_sid: first parent wins, self-links and unknown keys refused
        assert tracker.adopt_sid(report, interval_key(ivl))
        assert not tracker.adopt_sid(hop, interval_key(ivl))
        assert not tracker.adopt_sid(report, ("agg", 0, 0))
        assert not tracker.adopt_sid(report, ("agg", 0, 1))
        assert tracker.get(interval_key(ivl)).parent == report

    def test_marks_are_visible_at_once(self):
        tracker = SpanTracker()
        ivl = _FakeInterval(1, 0)
        tracker.record_interval(ivl, 0.0, 1.0, 1)
        for i in range(1000):
            tracker.mark_interval(ivl, float(i), "enqueued", 1)
        assert len(tracker.get(interval_key(ivl)).marks) == 1000

    def test_tracker_adds_o1_gc_tracked_objects(self):
        tracker = SpanTracker()
        gc.collect()
        before = len(gc.get_objects())
        for seq in range(10_000):
            ivl = _FakeInterval(1, seq)
            tracker.record_interval(ivl, 0.0, 1.0, 1)
            tracker.mark_interval(ivl, 0.5, "enqueued", 1)
            tracker.mark_interval(ivl, 0.7, "prune_solution", 1)
            report = tracker.record("report", 1.0, 1.0, node=1, key=("agg", 1, seq))
            tracker.adopt(report, interval_key(ivl))
        del ivl, report
        gc.collect()
        # No list, marks list or cached view per span: the columns,
        # the key registry and the mark log are a fixed set of objects.
        assert len(gc.get_objects()) - before < 100
        assert tracker.stats()["recorded"] == 20_000


class TestQueueFold:
    """The recording hot path: marks find their span by identity key
    and are dropped when the interval was never traced."""

    def test_marks_on_aggregated_intervals_use_prefixed_key(self):
        tracker = SpanTracker()
        agg = _FakeInterval(0, 3, parts=(1, 2))
        span = tracker.record("report", 0.0, 0.0, key=interval_key(agg))
        tracker.mark_interval(agg, 1.0, "enqueued", 0)
        assert tracker.spans  # fold
        assert span.marks == [(1.0, "enqueued@P0")]

    def test_mark_for_untraced_interval_is_dropped(self):
        tracker = SpanTracker()
        tracker.mark_interval(_FakeInterval(9, 9), 1.0, "enqueued", 9)
        assert tracker.spans == []


class TestEndToEndTracing:
    def _run(self, **kwargs):
        defaults = dict(
            seed=3, config=EpochConfig(epochs=4, sync_prob=0.8)
        )
        defaults.update(kwargs)
        return run_hierarchical(SpanningTree.regular(2, 3), **defaults)

    def test_alarm_parentage_spans_two_tree_levels(self):
        result = self._run()
        tracker = result.sim.telemetry.spans
        alarms = tracker.alarms()
        assert alarms, "scenario must produce at least one detection"
        for alarm in alarms:
            names = {}
            for depth, span in tracker.walk(alarm):
                names.setdefault(span.name, []).append(depth)
            # A 3-level tree: alarm at the root adopts level-2 reports,
            # which adopt the intervals the leaves forwarded — one level
            # of reports below the alarm, concrete intervals at the
            # bottom (a leaf reports no aggregate of its own).
            assert "report" in names and "interval" in names
            assert set(names["report"]) == {1}
            assert max(names["interval"]) == 2
            assert not [
                s for _, s in tracker.walk(alarm)
                if s.name == "report" and result.tree.is_leaf(s.node)
            ]
            # Every concrete solution interval is reachable from the alarm.
            leaf_nodes = {
                s.node
                for _, s in tracker.walk(alarm)
                if s.name == "interval"
            }
            assert len(leaf_nodes) == result.tree.n

    def test_reports_carry_level_attribute(self):
        result = self._run()
        tracker = result.sim.telemetry.spans
        tree = result.tree
        for span in tracker.named("report"):
            assert span.attrs["level"] == tree.level(span.node)
        for span in tracker.named("alarm"):
            assert span.attrs["level"] == tree.level(span.node)

    def test_detection_latency_histogram_matches_alarms(self):
        result = self._run()
        telemetry = result.sim.telemetry
        latencies = telemetry.spans.detection_latencies()
        assert len(latencies) == len(result.detections)
        assert telemetry.detection_latency.count == len(result.detections)
        assert all(latency >= 0.0 for latency in latencies)
        assert sorted(latencies) == list(telemetry.detection_latency.values)

    def test_latency_equals_alarm_time_minus_last_open(self):
        result = self._run()
        tracker = result.sim.telemetry.spans
        for record, alarm in zip(result.detections, tracker.alarms()):
            opens = [
                tracker.get(interval_key(leaf)).start
                for leaf in record.solution.concrete_intervals()
            ]
            assert alarm.attrs["latency"] == max(
                0.0, record.time - max(opens)
            )

    def test_latency_is_zero_safe_without_interval_spans(self):
        # Regression: an alarm whose solution intervals were never traced
        # (e.g. state restored from outside the simulation) must fall
        # back to latency 0, never negative or crashing.
        result = self._run()
        telemetry = result.sim.telemetry
        role = next(
            r for r in result.roles.values() if r.parent_id is None
        )
        record = role.detections[0]
        telemetry.spans._by_key.clear()  # drop every traced interval
        before = telemetry.detection_latency.count
        role._record_alarm_telemetry(record)
        assert telemetry.detection_latency.count == before + 1
        assert telemetry.spans.alarms()[-1].attrs["latency"] == 0.0

    def test_core_lifecycle_marks_recorded(self):
        result = self._run()
        tracker = result.sim.telemetry.spans
        labels = {
            label.split("@")[0]
            for span in tracker.spans
            for _, label in span.marks
        }
        assert "enqueued" in labels
        assert "prune_solution" in labels

    def test_spans_deterministic_across_runs(self):
        a = self._run().sim.telemetry.spans
        b = self._run().sim.telemetry.spans
        assert len(a) == len(b)
        for x, y in zip(a.spans, b.spans):
            assert (x.sid, x.name, x.node, x.start, x.end, x.parent) == (
                y.sid, y.name, y.node, y.start, y.end, y.parent
            )
            assert x.marks == y.marks


class TestWireForm:
    """to_dicts and append_imported — the scrape form, and the import a
    cluster aggregator does with it."""

    def _tracker(self) -> SpanTracker:
        tracker = SpanTracker()
        leaf = tracker.record(
            "interval", 1.0, 2.0, node=3, key=("ivl", 3), owner=3
        )
        leaf.mark(1.5, "enqueued@P3")
        alarm = tracker.record("alarm", 4.0, 4.0, node=0, latency=2.0)
        tracker.adopt(alarm, ("ivl", 3))
        return tracker

    def test_round_trip_preserves_structure(self):
        import json

        tracker = self._tracker()
        rows = json.loads(json.dumps(tracker.to_dicts()))
        rebuilt = SpanTracker()
        imported = [rebuilt.append_imported(row) for row in rows]
        # Parent links are remapped after the whole table is in, as the
        # aggregator does: an alarm's sid exceeds its children's.
        for span, row in zip(imported, rows):
            if row["parent"] is not None:
                assert rebuilt.reparent(span, row["parent"])
        assert len(rebuilt) == 2
        leaf, alarm = rebuilt.spans
        assert leaf.name == "interval" and leaf.parent == alarm.sid
        assert leaf.marks == [(1.5, "enqueued@P3")]
        assert alarm.attrs["latency"] == 2.0
        assert rebuilt.render_tree(alarm) == tracker.render_tree(
            tracker.spans[1]
        )
        assert rebuilt.by_sid(1) is alarm
        assert rebuilt.by_sid(2) is None and rebuilt.by_sid(-1) is None
        assert rebuilt.stats()["recorded"] == 2
