"""Unit tests: the Possibly/Definitely interval conditions (Eq. 1–2)."""

from repro.clocks import vc_less
from repro.intervals import (
    overlap,
    overlap_pair,
    pairwise_matrix,
    possibly,
    possibly_pair,
)
from repro.workload.scenarios import figure1_staggered_execution, figure3_execution

from ..conftest import make_interval


class TestOverlapPair:
    def test_causally_coupled_intervals_overlap(self):
        ex = figure1_staggered_execution()
        x1 = ex.intervals()[0][0]
        x2 = ex.intervals()[1][0]
        assert overlap_pair(x1, x2)
        assert overlap_pair(x2, x1)

    def test_sequential_intervals_do_not_overlap(self):
        # y begins causally after x ends.
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [2, 1], [2, 2])  # knows x's end
        assert not overlap_pair(x, y)

    def test_concurrent_intervals_do_not_definitely_overlap(self):
        # No messages: mins cannot happen-before maxes across processes.
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [0, 1], [0, 2])
        assert not overlap_pair(x, y)
        # ... but Possibly holds for them.
        assert possibly_pair(x, y)


class TestOverlapSets:
    def test_vacuous_cases(self):
        assert overlap([])
        assert overlap([make_interval(0, 0, [1], [2])])
        assert possibly([])

    def test_figure3_all_pairs_overlap(self):
        intervals = [ivs[0] for ivs in figure3_execution().intervals().values()]
        assert len(intervals) == 4
        assert overlap(intervals)
        assert possibly(intervals)

    def test_one_bad_interval_breaks_overlap(self):
        intervals = [ivs[0] for ivs in figure3_execution().intervals().values()]
        # An interval wholly in the causal past of the others.
        early = make_interval(0, 0, [1, 0, 0, 0], [1, 0, 0, 0])
        assert not overlap([early, *intervals[1:]])


class TestPossiblyPair:
    def test_strict_precedence_excludes_possibly(self):
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [3, 1], [3, 2])  # starts knowing max(x)+1
        assert not possibly_pair(x, y)

    def test_definitely_implies_possibly(self):
        ex = figure1_staggered_execution()
        x1, x2 = ex.intervals()[0][0], ex.intervals()[1][0]
        assert overlap_pair(x1, x2) and possibly_pair(x1, x2)


class TestPairwiseMatrix:
    def test_matches_scalar_comparisons(self, rng):
        intervals = []
        for owner in range(6):
            lo = rng.integers(0, 5, size=4)
            hi = lo + rng.integers(0, 5, size=4)
            intervals.append(make_interval(owner, 0, lo, hi))
        matrix = pairwise_matrix(intervals)
        for i, x in enumerate(intervals):
            for j, y in enumerate(intervals):
                assert matrix[i, j] == vc_less(x.lo, y.hi)

    def test_empty(self):
        assert pairwise_matrix([]).shape == (0, 0)
