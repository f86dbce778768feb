"""Unit tests: the repeated-detection queue machine (Algorithm 1)."""

import pytest

from repro.detect import RepeatedDetectionCore
from repro.intervals import overlap
from repro.workload.scenarios import figure2_execution, figure3_execution

from ..conftest import make_interval


def overlapping_pair():
    """Two intervals from figure 3 (mutually overlapping)."""
    ivs = figure3_execution().intervals()
    return ivs[0][0], ivs[1][0]


class TestSingleQueue:
    def test_every_interval_is_a_solution(self):
        core = RepeatedDetectionCore([0], detector_id=0)
        for seq in range(3):
            sols = core.offer(0, make_interval(0, seq, [3 * seq + 1], [3 * seq + 2]))
            assert len(sols) == 1
            assert sols[0].heads[0].seq == seq
        assert core.stats.detections == core.stats.offers == 3
        # Pruning after each solution empties the queue again.
        assert core.queue_sizes() == {0: 0}


class TestPairwiseDetection:
    def test_solution_on_completing_pair(self):
        x, y = overlapping_pair()
        core = RepeatedDetectionCore([0, 1], detector_id=9)
        assert core.offer(0, x) == []
        sols = core.offer(1, y)
        assert len(sols) == 1
        assert sols[0].detector == 9
        assert set(sols[0].heads) == {0, 1}
        assert overlap(sols[0].intervals)

    def test_incompatible_heads_pruned(self):
        # y begins causally after x ends: x's queue head must go.
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [3, 1], [3, 2])
        core = RepeatedDetectionCore([0, 1])
        core.offer(0, x)
        assert core.offer(1, y) == []
        assert core.queue_sizes() == {0: 0, 1: 1}
        assert core.stats.pruned_incompatible == 1

    def test_blocked_until_all_queues_nonempty(self):
        x, y = overlapping_pair()
        core = RepeatedDetectionCore([0, 1, 2])
        assert core.offer(0, x) == []
        assert core.offer(1, y) == []
        z = figure3_execution().intervals()[2][0]
        assert len(core.offer(2, z)) == 1


class TestRepeatedDetection:
    def test_figure2_repeated_solutions_at_p2(self):
        """The paper's Figure 2 narrative at process P2: solution
        {x1, x2}, pruning removes x2, then solution {x1, x3}."""
        ivs = figure2_execution().intervals()
        x1 = ivs[0][0]
        x2, x3 = ivs[1][0], ivs[1][1]
        core = RepeatedDetectionCore(["local", "child"], detector_id=1)
        assert core.offer("local", x2) == []
        assert core.offer("local", x3) == []
        sols = core.offer("child", x1)
        assert len(sols) == 2
        assert sols[0].heads["local"] == x2
        assert sols[0].heads["child"] == x1
        assert sols[1].heads["local"] == x3
        assert sols[1].heads["child"] == x1

    def test_eq10_removes_minimal_hi_head(self):
        """After {x1, x2} only x2 (whose max is dominated) is pruned."""
        ivs = figure2_execution().intervals()
        x1, x2 = ivs[0][0], ivs[1][0]
        core = RepeatedDetectionCore(["a", "b"])
        core.offer("b", x2)
        core.offer("a", x1)
        # x2's max happens-before x1's max, so only x2 is removed.
        assert core.stats.pruned_after_solution == 1
        assert core.queue_sizes() == {"a": 1, "b": 0}

    def test_eq10_removes_all_heads_when_maxes_concurrent(self):
        ivs = figure3_execution().intervals()
        xs = [ivs[p][0] for p in range(3)]
        core = RepeatedDetectionCore([0, 1, 2])
        for p, x in enumerate(xs):
            core.offer(p, x)
        assert core.stats.detections == 1
        # Figure 3 maxes: P0's max is dominated by P1/P2's (it ends
        # before broadcasting), so pruning keeps only dominated-free heads.
        assert core.stats.pruned_after_solution >= 1

    def test_liveness_some_head_always_pruned(self, rng):
        """Theorem 4: every solution prunes at least one head."""
        from ..conftest import random_execution

        for trial in range(20):
            ex = random_execution(3, 30, rng)
            core = RepeatedDetectionCore([0, 1, 2])
            for interval in ex.trace.intervals_in_completion_order():
                before = sum(core.queue_sizes().values())
                sols = core.offer(interval.owner, interval)
                after = sum(core.queue_sizes().values())
                if sols:
                    # enqueue added 1; each solution removed >= 1
                    assert after <= before + 1 - len(sols)


class TestQueueManagement:
    def test_remove_queue_unblocks_detection(self):
        x, y = overlapping_pair()
        core = RepeatedDetectionCore([0, 1, 2])
        core.offer(0, x)
        core.offer(1, y)
        sols = core.remove_queue(2)
        assert len(sols) == 1
        assert set(sols[0].heads) == {0, 1}

    def test_add_queue_blocks_until_it_fills(self):
        x, y = overlapping_pair()
        core = RepeatedDetectionCore([0])
        core.add_queue(1)
        assert core.offer(0, x) == []
        assert len(core.offer(1, y)) == 1

    def test_add_duplicate_queue_rejected(self):
        core = RepeatedDetectionCore([0])
        with pytest.raises(KeyError):
            core.add_queue(0)

    def test_needs_at_least_one_queue(self):
        with pytest.raises(ValueError):
            RepeatedDetectionCore([])


class TestOneShotMode:
    def test_halts_after_first_solution(self):
        core = RepeatedDetectionCore([0], repeated=False)
        assert len(core.offer(0, make_interval(0, 0, [1], [2]))) == 1
        assert core.halted
        # "Hangs after the initial detection": further input ignored.
        assert core.offer(0, make_interval(0, 1, [3], [4])) == []
        assert core.stats.detections == 1


class TestStats:
    def test_space_accounting_in_vector_entries(self):
        core = RepeatedDetectionCore([0, 1])
        core.offer(0, make_interval(0, 0, [1, 0], [2, 0]))
        assert core.space_in_use() == 4  # one interval, two 2-vectors
        core.offer(0, make_interval(0, 1, [3, 0], [4, 0]))
        assert core.space_in_use() == 8

    def test_comparison_counter_grows(self):
        x, y = overlapping_pair()
        core = RepeatedDetectionCore([0, 1])
        core.offer(0, x)
        baseline = core.stats.comparisons
        core.offer(1, y)
        assert core.stats.comparisons > baseline
