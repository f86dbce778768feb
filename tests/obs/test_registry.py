"""Unit tests: the metrics registry (counters, gauges, histograms)."""

import math

import pytest

from repro.obs import (
    CounterMetric,
    CounterVec,
    Gauge,
    GaugeVec,
    Histogram,
    MetricsRegistry,
)


class TestScalars:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert list(counter.samples()) == [({}, 5)]

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            CounterMetric("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8


class TestVectors:
    def test_counter_vec_is_a_counter(self):
        vec = CounterVec("v", labelnames=("plane", "type"))
        vec[("control", "Report")] += 1
        vec[("control", "Report")] += 1
        vec[("app", "App")] += 1
        assert vec[("control", "Report")] == 2
        assert sum(vec.values()) == 3
        assert dict(vec) == {("control", "Report"): 2, ("app", "App"): 1}

    def test_single_label_scalar_keys(self):
        vec = CounterVec("v", labelnames=("node",))
        vec[3] += 1
        vec[3] += 1
        labels, value = next(iter(vec.samples()))
        assert labels == {"node": 3} and value == 2

    def test_samples_order_is_deterministic(self):
        vec = CounterVec("v", labelnames=("node",))
        for key in (5, 1, 9, 3):
            vec[key] += 1
        assert [labels["node"] for labels, _ in vec.samples()] == [1, 3, 5, 9]

    def test_label_arity_enforced_at_sample_time(self):
        vec = CounterVec("v", labelnames=("a", "b"))
        vec[("x",)] += 1
        with pytest.raises(ValueError):
            list(vec.samples())

    def test_gauge_vec_assignment(self):
        vec = GaugeVec("g", labelnames=("level",))
        vec[2] = 0.5
        vec[2] = 0.75  # assignment, not accumulation
        assert vec[2] == 0.75


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)  # exactly on an edge -> that bucket (le semantics)
        h.observe(1.5)
        h.observe(2.0)
        h.observe(5.1)  # beyond the last finite edge -> +Inf
        assert h.buckets == (1.0, 2.0, 5.0, math.inf)
        assert h.bucket_counts == [1, 2, 0, 1]
        assert h.cumulative_counts() == [1, 3, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(9.6)

    def test_inf_edge_appended_once(self):
        h = Histogram("h", buckets=(1.0, math.inf))
        assert h.buckets == (1.0, math.inf)

    def test_percentiles_are_exact(self):
        h = Histogram("h", buckets=(100.0,))
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(value)
        assert h.percentile(50) == 3.0
        assert h.percentile(100) == 5.0
        assert h.percentile(0) == 1.0
        assert h.values == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(50) is None

    def test_percentile_range_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_interleaved_reads_match_sorted(self):
        """Observations append and sort on read: every read between
        observes, merges and a wire round trip sees what ``sorted``
        of everything observed so far gives."""
        import random

        rng = random.Random(7)
        edges = (0.5, 1.0, 5.0)
        h, seen = Histogram("h", buckets=edges), []

        def check():
            assert h.values == tuple(sorted(seen))
            for q in (0, 1, 25, 50, 90, 99, 100):
                index = max(0, math.ceil(q / 100.0 * len(seen)) - 1)
                assert h.percentile(q) == sorted(seen)[index]
            assert h.count == len(seen)

        for step in range(300):
            value = rng.choice([rng.random() * 10, 1.0, 2.5, 0.0])
            h.observe(value)
            seen.append(value)
            if step % 7 == 0:
                check()
            if step % 50 == 0:
                other = Histogram("o", buckets=edges)
                for _ in range(rng.randrange(5)):
                    value = rng.random() * 10
                    other.observe(value)
                    seen.append(value)
                h.merge(other)
                check()
            if step % 90 == 0:
                registry = MetricsRegistry()
                registry.histogram("h", "", edges).merge(h)
                entry = registry.to_dict()["metrics"]["h"]
                assert entry["values"] == sorted(seen)
                rebuilt = MetricsRegistry.from_dict(registry.to_dict()).get("h")
                assert rebuilt.values == tuple(sorted(seen))
                assert rebuilt.bucket_counts == h.bucket_counts
        check()


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter_vec("v", "help", ("node",))
        b = registry.counter_vec("v")
        assert a is b
        assert len(registry) == 1

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_metrics_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.gauge("aa")
        assert [m.name for m in registry.metrics()] == ["aa", "zz"]

    def test_get_missing_is_none(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        assert "nope" not in registry


class TestMerge:
    def test_counters_and_vecs_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.counter_vec("v", "", ("node",))["0"] += 1
        b.counter_vec("v", "", ("node",))["0"] += 4
        b.counter_vec("v")["1"] += 7
        a.merge(b)
        assert a.get("c").value == 5
        assert dict(a.get("v")) == {"0": 5, "1": 7}

    def test_gauge_takes_incoming_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.get("g").value == 9

    def test_histograms_add_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", "", (1.0, 2.0)).observe(0.5)
        b.histogram("h", "", (1.0, 2.0)).observe(1.5)
        b.get("h").observe(0.7)
        a.merge(b)
        merged = a.get("h")
        assert merged.count == 3
        assert merged.sum == pytest.approx(2.7)
        assert merged.percentile(50) == 0.7

    def test_histogram_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", "", (1.0,))
        b.histogram("h", "", (2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_missing_metrics_adopted_with_metadata(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter_vec("v", "helpful", ("plane", "type"))[("c", "x")] += 2
        b.histogram("h", "lat", (0.5, 1.0)).observe(0.2)
        a.merge(b)
        assert a.get("v").help == "helpful"
        assert a.get("v").labelnames == ("plane", "type")
        assert a.get("h").buckets == b.get("h").buckets
        # adopted copies must not alias the source registry's metric
        b.get("v")[("c", "x")] += 1
        assert a.get("v")[("c", "x")] == 2

    def test_type_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merge_is_associative_for_counters(self):
        parts = []
        for value in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("c").inc(value)
            parts.append(registry)
        left = MetricsRegistry()
        for part in parts:
            left.merge(part)
        right = MetricsRegistry()
        right.merge(parts[0])
        tail = MetricsRegistry()
        tail.merge(parts[1])
        tail.merge(parts[2])
        right.merge(tail)
        assert left.get("c").value == right.get("c").value == 6


class TestPickling:
    """Shard results carry registries across process boundaries."""

    def test_all_metric_types_round_trip(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("c", "ch").inc(3)
        registry.gauge("g", "gh").set(-2)
        registry.counter_vec("cv", "cvh", ("node",))["5"] += 4
        registry.gauge_vec("gv", "gvh", ("level",))["2"] = 0.25
        registry.histogram("h", "hh", (1.0, 2.0)).observe(1.5)
        rebuilt = pickle.loads(pickle.dumps(registry))
        assert rebuilt.get("c").value == 3
        assert rebuilt.get("g").value == -2
        assert dict(rebuilt.get("cv")) == {"5": 4}
        assert rebuilt.get("cv").name == "cv"
        assert rebuilt.get("cv").labelnames == ("node",)
        assert dict(rebuilt.get("gv")) == {"2": 0.25}
        assert rebuilt.get("h").count == 1
        assert rebuilt.get("h").percentile(50) == 1.5

    def test_vec_reduce_does_not_bind_counts_to_name(self):
        import pickle

        vec = CounterVec("v", "help", ("node",))
        vec["0"] += 9
        rebuilt = pickle.loads(pickle.dumps(vec))
        assert rebuilt.name == "v" and rebuilt.help == "help"
        assert dict(rebuilt) == {"0": 9}


class TestWireForm:
    """to_dict / from_dict — the cluster-scrape JSON round trip."""

    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("runs_total", "Runs.").inc(3)
        registry.gauge("depth", "Depth.").set(2.5)
        vec = registry.counter_vec("sent", "Sent.", ("node", "dir"))
        vec[(0, "out")] += 4
        vec[(1, "in")] += 2
        single = registry.gauge_vec("alpha", "Alpha.", ("level",))
        single[2] = 0.25
        histogram = registry.histogram("lat", "Latency.", (1.0, math.inf))
        histogram.observe(0.5)
        histogram.observe(7.0)
        return registry

    def test_round_trip_is_lossless(self):
        import json

        original = self._populated()
        payload = json.loads(json.dumps(original.to_dict()))  # over the wire
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.get("runs_total").value == 3
        assert rebuilt.get("depth").value == 2.5
        assert rebuilt.get("sent")[(0, "out")] == 4
        assert rebuilt.get("alpha")[2] == 0.25
        histogram = rebuilt.get("lat")
        assert histogram.buckets == (1.0, math.inf)
        assert histogram.values == (0.5, 7.0)
        assert histogram.sum == 7.5
        from repro.obs import prometheus_text

        assert prometheus_text(rebuilt) == prometheus_text(original)

    def test_infinite_edges_travel_as_strings(self):
        registry = MetricsRegistry()
        registry.histogram("h", "", (1.0, math.inf))
        entry = registry.to_dict()["metrics"]["h"]
        assert entry["buckets"] == [1.0, "+Inf"]

    def test_single_label_keys_stay_scalar(self):
        registry = MetricsRegistry()
        registry.counter_vec("c", "", ("node",))[7] += 1
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.get("c")[7] == 1

    def test_rebuilt_registry_merges_into_local_one(self):
        local = self._populated()
        remote = MetricsRegistry.from_dict(self._populated().to_dict())
        local.merge(remote)
        assert local.get("runs_total").value == 6
        assert local.get("sent")[(0, "out")] == 8
        assert local.get("lat").count == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict(
                {"metrics": {"x": {"kind": "Sparkline", "value": 1}}}
            )
