"""The detection core against its per-pair oracle
(``ScalarReferenceCore``): byte-identical solutions, prune events and
comparison counts, and comparison-cache invalidation across the
tree-repair paths (add_queue / remove_queue)."""

import numpy as np
import pytest

from repro.detect import RepeatedDetectionCore
from repro.detect.offline import ScalarReferenceCore
from repro.intervals import Interval

from ..conftest import make_interval


def record_all(core, stream):
    solutions = []
    for key, interval in stream:
        solutions.extend(core.offer(key, interval))
    return solutions


def solution_sig(solutions):
    return [
        (s.index, sorted((k, iv.key()) for k, iv in s.heads.items()))
        for s in solutions
    ]


def random_stream(rng, k=4, n=6, count=300):
    """Random interval stream with a mix of overlap and skew."""
    stream = []
    seqs = [0] * k
    base = np.zeros(n, dtype=np.int64)
    for i in range(count):
        q = int(rng.integers(0, k))
        if rng.random() < 0.5:
            lo = base + rng.integers(0, 3, n)
            hi = lo + 4 + rng.integers(0, 3, n)
        else:
            lo = base + rng.integers(0, 8, n)
            hi = lo + rng.integers(0, 8, n)
        stream.append((q, Interval(owner=q, seq=seqs[q], lo=lo, hi=hi)))
        seqs[q] += 1
        if i % 10 == 9:
            base = base + 6
    return stream


def burst_stream(seed, *, k=8, n=64, offers=2000, depth=6, skew_prob=0.08):
    """Deep queues, then a cascade: per epoch, queues ``0 .. k-2`` each
    receive ``depth`` intervals whose bounds advance in lock-step
    windows (overlap within a window, incompatibility across windows);
    queue ``k-1``'s batch arrives last and unblocks a burst of ``depth``
    solutions.  ``skew_prob`` replaces an interval with a jittered one
    to keep incompatibility pruning exercised.  ``random_stream`` never
    gets queues this deep."""
    rng = np.random.default_rng(seed)
    seqs = [0] * k
    out = []
    base = np.zeros(n, dtype=np.int64)
    while len(out) < offers:
        windows = [base + 10 * d for d in range(depth)]
        for q in range(k):
            for d in range(depth):
                w = windows[d]
                if rng.random() < skew_prob:
                    lo = w + rng.integers(0, 8, n)
                    hi = lo + rng.integers(0, 8, n)
                else:
                    lo = w + rng.integers(0, 3, n)
                    hi = w + 5 + rng.integers(0, 3, n)
                out.append((q, Interval(owner=q, seq=seqs[q], lo=lo, hi=hi)))
                seqs[q] += 1
        base = base + 10 * depth
    return out[:offers]


def observed_run(cls, keys, stream):
    events = []
    core = cls(keys, observer=lambda ev, key, iv: events.append((ev, key, iv.key())))
    solutions = record_all(core, stream)
    return core, (solution_sig(solutions), events, core.stats.comparisons)


def assert_byte_identical(k, stream):
    oracle, expected = observed_run(ScalarReferenceCore, range(k), stream)
    core, got = observed_run(RepeatedDetectionCore, range(k), stream)
    assert got == expected
    assert core.stats.detections > 0 and core.stats.pruned_incompatible > 0
    # "logical pair tests" is what the per-pair reading really performs:
    # two per partner in the fixpoint, Eq. 10 stopping at the first dominator
    assert oracle._matrix.tests == core.stats.comparisons
    # watching a core does not change what it detects
    bare = record_all(RepeatedDetectionCore(range(k)), stream)
    assert solution_sig(bare) == got[0]


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_random_streams_byte_identical(self, seed):
        assert_byte_identical(4, random_stream(np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_burst_streams_byte_identical(self, seed):
        assert_byte_identical(8, burst_stream(seed))

    def test_hierarchical_run_identical_under_oracle(self, monkeypatch):
        """A whole simulation — tree, network, workload — with every
        node's core swapped for the oracle comes out the same."""
        from repro.detect import hierarchical
        from repro.experiments.harness import run_hierarchical
        from repro.topology import SpanningTree
        from repro.workload.generator import EpochConfig

        def outcome(core_class=RepeatedDetectionCore):
            result = run_hierarchical(
                SpanningTree.regular(3, 2), seed=1, config=EpochConfig(epochs=4)
            )
            assert all(type(r.core._core) is core_class for r in result.roles.values())
            return {
                "detection_times": [d.time for d in result.detections],
                "control_messages": result.metrics.control_messages,
                "comparisons": [n.comparisons for n in result.metrics.per_node],
            }

        expected = outcome()
        assert expected["detection_times"] and sum(expected["comparisons"]) > 0
        monkeypatch.setattr(hierarchical, "RepeatedDetectionCore", ScalarReferenceCore)
        assert outcome(ScalarReferenceCore) == expected

    def test_pair_test_callback_totals_match_stats(self):
        counts = []
        core = RepeatedDetectionCore(range(3), on_pair_tests=counts.append)
        stream = random_stream(np.random.default_rng(3), k=3, count=120)
        record_all(core, stream)
        assert core.stats.comparisons > 0
        assert sum(counts) == core.stats.comparisons


class TestRepairInvalidation:
    """The fault layer rewires queues mid-run; the comparison cache must
    follow (docs/performance.md's invalidation contract)."""

    def test_removal_unblocks_solution_cascade(self):
        for cls in (ScalarReferenceCore, RepeatedDetectionCore):
            core = cls([0, 1, 2])
            core.offer(0, make_interval(0, 0, [0, 0], [10, 10]))
            core.offer(0, make_interval(0, 1, [11, 11], [20, 20]))
            core.offer(1, make_interval(1, 0, [1, 1], [9, 9]))
            core.offer(1, make_interval(1, 1, [12, 12], [19, 19]))
            assert core.stats.detections == 0  # blocked on queue 2
            solutions = core.remove_queue(2)
            assert [s.index for s in solutions] == [0, 1]
            assert core.stats.detections == 2

    def test_add_queue_blocks_then_new_queue_participates(self):
        core = RepeatedDetectionCore([0, 1])
        core.offer(0, make_interval(0, 0, [0, 0], [10, 10]))
        core.add_queue(2)
        # The fresh queue is empty, so nothing can be detected ...
        core.offer(1, make_interval(1, 0, [1, 1], [9, 9]))
        assert core.stats.detections == 0
        # ... until it fills; its head must join the pair cache.
        solutions = core.offer(2, make_interval(2, 0, [2, 2], [8, 8]))
        assert len(solutions) == 1
        assert set(solutions[0].heads) == {0, 1, 2}

    def test_add_remove_interleaved_matches_scalar(self):
        """A repair-like schedule: offers interleaved with queue churn
        must leave the core and its oracle in byte-identical states."""

        def run(cls):
            events = []
            core = cls(
                [0, 1],
                observer=lambda ev, key, iv: events.append((ev, key, iv.key())),
            )
            sols = []
            sols += core.offer(0, make_interval(0, 0, [0, 0], [5, 5]))
            sols += core.offer(1, make_interval(1, 0, [1, 1], [6, 6]))
            core.add_queue(2)
            sols += core.offer(0, make_interval(0, 1, [7, 7], [12, 12]))
            sols += core.offer(2, make_interval(2, 0, [8, 8], [13, 13]))
            sols += core.remove_queue(1)
            sols += core.offer(2, make_interval(2, 1, [14, 14], [20, 20]))
            sols += core.offer(0, make_interval(0, 2, [15, 15], [19, 19]))
            return solution_sig(sols), events, core.stats.comparisons

        assert run(ScalarReferenceCore) == run(RepeatedDetectionCore)

    def test_removed_queue_rejoins_with_fresh_state(self):
        core = RepeatedDetectionCore([0, 1])
        core.offer(1, make_interval(1, 0, [0, 0], [4, 4]))
        core.remove_queue(1)
        core.add_queue(1)
        # Old head must not linger in the cache after the re-add.
        core.offer(0, make_interval(0, 0, [1, 1], [5, 5]))
        assert core.stats.detections == 0
        core.offer(1, make_interval(1, 0, [2, 2], [6, 6]))
        assert core.stats.detections == 1


class TestPairTestsMetric:
    def test_counter_populated_per_level_in_simulation(self):
        from repro.experiments.harness import run_hierarchical
        from repro.topology import SpanningTree
        from repro.workload.generator import EpochConfig

        result = run_hierarchical(
            SpanningTree.regular(2, 2), seed=3, config=EpochConfig(epochs=4)
        )
        counter = result.sim.telemetry.registry.get("repro_core_pair_tests_total")
        assert counter is not None
        total = sum(counter.values())
        per_node = sum(n.comparisons for n in result.metrics.per_node)
        assert total == per_node > 0
        # Labelled by spanning-tree level; interior levels do the work.
        assert any(level > 1 for level in counter)
