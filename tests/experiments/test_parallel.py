"""Tests: the sharded experiment engine (repro.experiments.parallel).

The load-bearing property is the determinism contract: ``workers=1``
(the in-process sequential reference) and any ``workers > 1`` (the
real multi-process path) must produce identical merged metrics,
identical detection records and an identical deterministic telemetry
exposition.
"""

import pickle

import pytest

from repro.analysis.metrics import RunMetrics
from repro.experiments import (
    RunSpec,
    ShardedRunner,
    run_hierarchical,
    run_table1,
    scaling_sweep,
    spawn_seed_sequences,
    spawn_seeds,
    table1_specs,
    tree_shape_ablation,
)
from repro.topology import SpanningTree
from repro.workload.generator import EpochConfig


def _specs(seed, count=3):
    return [
        RunSpec(
            fn=run_hierarchical,
            args=(SpanningTree.regular(2, 3),),
            kwargs={"config": EpochConfig(epochs=4)},
            seed=child,
            label=f"rep-{i}",
        )
        for i, child in enumerate(spawn_seed_sequences(seed, count))
    ]


def _surface(report):
    return {
        "exposition": report.deterministic_exposition(),
        "control_messages": report.metrics.control_messages,
        "root_detections": report.metrics.root_detections,
        "total_comparisons": report.metrics.total_comparisons,
        "solution_counts": [s.solution_count for s in report.shards],
        "detection_times": [d.time for d in report.detections],
        "per_node": len(report.metrics.per_node),
    }


class TestSeedDerivation:
    def test_spawn_is_deterministic(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_children_key_distinct_streams(self):
        children = spawn_seed_sequences(7, 2)
        runs = [
            run_hierarchical(
                SpanningTree.regular(2, 3), seed=child, config=EpochConfig(epochs=3)
            )
            for child in children
        ]
        assert runs[0].trace.event_count() != 0
        # distinct children ⇒ distinct delay streams ⇒ distinct timings
        assert [d.time for d in runs[0].detections] != [
            d.time for d in runs[1].detections
        ]

    def test_same_child_reproduces(self):
        child = spawn_seed_sequences(7, 1)[0]
        a = run_hierarchical(
            SpanningTree.regular(2, 3), seed=child, config=EpochConfig(epochs=3)
        )
        b = run_hierarchical(
            SpanningTree.regular(2, 3), seed=child, config=EpochConfig(epochs=3)
        )
        assert [d.time for d in a.detections] == [d.time for d in b.detections]


class TestShardedRunner:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workers_do_not_change_results(self, seed):
        sequential = ShardedRunner(workers=1).run(_specs(seed))
        sharded = ShardedRunner(workers=4).run(_specs(seed))
        assert _surface(sequential) == _surface(sharded)

    def test_shard_order_is_spec_order(self):
        report = ShardedRunner(workers=2).run(_specs(11))
        assert [s.label for s in report.shards] == ["rep-0", "rep-1", "rep-2"]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardedRunner(workers=0)

    def test_non_harness_values_ship_verbatim(self):
        specs = [
            RunSpec(fn=len, args=(["a", "b"],), label="len"),
            RunSpec(fn=sorted, args=([3, 1, 2],), label="sorted"),
        ]
        report = ShardedRunner(workers=2).run(specs)
        assert report.values == [2, [1, 2, 3]]
        assert report.shards[0].metrics is None

    def test_shard_telemetry_metrics_present(self):
        report = ShardedRunner(workers=1).run(_specs(5, count=2))
        registry = report.telemetry
        assert registry.get("repro_shards_total").value == 2
        assert registry.get("repro_shard_workers").value == 1
        histogram = registry.get("repro_shard_duration_seconds")
        assert histogram.count == 2
        assert report.shard_skew() >= 1.0

    def test_capture_trace_round_trips(self):
        report = ShardedRunner(workers=2, capture_trace=True).run(_specs(9, count=2))
        for shard in report.shards:
            assert shard.trace is not None
            assert shard.trace.event_count() > 0

    def test_alpha_republished_from_merged_counters(self):
        report = ShardedRunner(workers=1).run(_specs(3))
        detections = report.telemetry.get("repro_level_detections_total")
        offers = report.telemetry.get("repro_level_offers_total")
        alpha = report.telemetry.get("repro_level_realized_alpha")
        for level, count in offers.items():
            if count:
                assert alpha[level] == pytest.approx(
                    detections.get(level, 0) / count
                )


class TestRunMetricsMerge:
    def test_merge_accumulates(self):
        a = RunMetrics(control_messages=3, app_messages=0, root_detections=1)
        a.level_detections = {2: 1}
        a.level_offers = {2: 2}
        b = RunMetrics(control_messages=4, app_messages=1, root_detections=2)
        b.level_detections = {2: 1, 3: 3}
        b.level_offers = {2: 2, 3: 3}
        merged = RunMetrics.merged([a, b])
        assert merged.control_messages == 7
        assert merged.root_detections == 3
        assert merged.level_detections == {2: 2, 3: 3}
        assert merged.realized_alpha_by_level[2] == pytest.approx(0.5)
        assert merged.realized_alpha_by_level[3] == pytest.approx(1.0)

    def test_merged_empty_is_zero(self):
        assert RunMetrics.merged([]).control_messages == 0


class TestSweepsAcceptWorkers:
    def test_table1_workers_identical(self):
        kwargs = dict(configs=((2, 3), (2, 4)), p=4, seed=7)
        assert run_table1(workers=1, **kwargs) == run_table1(workers=2, **kwargs)

    def test_scaling_workers_identical(self):
        kwargs = dict(d=2, heights=(3, 4), p=4, seed=13)
        assert scaling_sweep(workers=1, **kwargs) == scaling_sweep(
            workers=2, **kwargs
        )

    def test_ablation_workers_identical(self):
        assert tree_shape_ablation(p=4, seed=3, workers=1) == tree_shape_ablation(
            p=4, seed=3, workers=2
        )

    def test_table1_specs_pickle(self):
        specs = table1_specs(((2, 3),), p=4, seed=7)
        assert len(specs) == 2
        rebuilt = pickle.loads(pickle.dumps(specs))
        assert rebuilt[0].label == specs[0].label
