"""Unit tests: the ⊓ aggregation operator (Section III-C, Eq. 5–7)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks import join, meet
from repro.intervals import Interval, aggregate, can_aggregate, overlap, overlap_pair
from repro.workload.scenarios import figure3_execution

from ..conftest import make_interval


def figure3_intervals():
    ivs = figure3_execution().intervals()
    return [ivs[p][0] for p in range(4)]


class TestEquations5And6:
    def test_bounds_are_componentwise_max_of_los_min_of_his(self):
        x = make_interval(0, 0, [1, 0, 2], [4, 1, 3])
        y = make_interval(1, 0, [0, 1, 1], [3, 5, 4])
        agg = aggregate([x, y], owner=7, seq=0, check=True)
        assert agg.lo.tolist() == [1, 1, 2]
        assert agg.hi.tolist() == [3, 1, 3]
        assert agg.members == frozenset({0, 1})

    def test_singleton_aggregation_preserves_bounds(self):
        x = make_interval(2, 3, [1, 0, 5], [2, 0, 9])
        agg = aggregate([x], owner=2, seq=0)
        assert agg.lo.tolist() == x.lo.tolist()
        assert agg.hi.tolist() == x.hi.tolist()
        assert agg.members == x.members

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.integers(0, 2**62), min_size=n, max_size=n),
                    st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_bounds_equal_join_of_los_and_meet_of_his(self, rows):
        """The reference is the lattice's own join/meet; a set whose
        meet falls below its join is refused, never built."""
        parts = [
            Interval(owner=i, seq=0, lo=np.array(lo), hi=np.array(lo) + np.array(span))
            for i, (lo, span) in enumerate(rows)
        ]
        lo, hi = join(*(x.lo for x in parts)), meet(*(x.hi for x in parts))
        if not (lo <= hi).all():
            with pytest.raises(ValueError, match="out of order"):
                aggregate(parts, owner=9, seq=0)
            return
        agg = aggregate(parts, owner=9, seq=0)
        assert agg.lo.tolist() == lo.tolist() and agg.hi.tolist() == hi.tolist()
        assert not agg.lo.flags.writeable and not agg.hi.flags.writeable
        assert agg.parts == tuple(parts)

    def test_mixed_widths_rejected(self):
        x = make_interval(0, 0, [1], [2])
        y = make_interval(1, 0, [0, 1], [3, 4])
        for parts in ([x, y], [y, x]):
            with pytest.raises(ValueError, match="widths"):
                aggregate(parts, owner=0, seq=0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], owner=0, seq=0)

    def test_check_flag_rejects_non_overlapping(self):
        x = make_interval(0, 0, [1, 0], [2, 0])
        y = make_interval(1, 0, [0, 1], [0, 2])
        assert not can_aggregate([x, y])
        with pytest.raises(ValueError):
            aggregate([x, y], owner=0, seq=0, check=True)


class TestTheorem1:
    """overlap(X ∪ Y) ⇔ overlap(X) ∧ overlap(Y) ∧ overlap(⊓X, ⊓Y)."""

    def test_forward_direction_on_figure3(self):
        x1, y1, x2, y2 = figure3_intervals()
        X, Y = [x1, x2], [y1, y2]
        assert overlap(X) and overlap(Y) and overlap(X + Y)
        aggX = aggregate(X, owner=0, seq=0)
        aggY = aggregate(Y, owner=1, seq=0)
        assert overlap_pair(aggX, aggY)

    def test_backward_direction_on_figure3(self):
        x1, y1, x2, y2 = figure3_intervals()
        for X, Y in [([x1, x2], [y1, y2]), ([x1, y1], [x2, y2]), ([x1], [y1, x2, y2])]:
            aggX = aggregate(X, owner=0, seq=0)
            aggY = aggregate(Y, owner=1, seq=0)
            assert overlap(X) and overlap(Y) and overlap_pair(aggX, aggY)
            assert overlap(X + Y)

    def test_aggregate_substitutes_for_set_in_failure_too(self):
        x1, y1, x2, y2 = figure3_intervals()
        # An interval with no causal relation to the others.
        loner = make_interval(0, 1, [9, 0, 0, 0], [10, 0, 0, 0])
        aggX = aggregate([x1, x2], owner=0, seq=0)
        assert not overlap_pair(aggX, loner)
        assert not overlap([x1, x2, loner])


class TestEquation7:
    """⊓(⊓(X), ⊓(Y)) == ⊓(X ∪ Y) — aggregation is union-associative."""

    def test_nested_equals_flat(self):
        x1, y1, x2, y2 = figure3_intervals()
        nested = aggregate(
            [aggregate([x1, x2], owner=0, seq=0), aggregate([y1, y2], owner=1, seq=0)],
            owner=2,
            seq=0,
        )
        flat = aggregate([x1, x2, y1, y2], owner=2, seq=0)
        assert nested.lo.tolist() == flat.lo.tolist()
        assert nested.hi.tolist() == flat.hi.tolist()

    def test_three_way_grouping_invariance(self):
        x1, y1, x2, y2 = figure3_intervals()
        a = aggregate([aggregate([x1, y1], 0, 0), aggregate([x2], 1, 0), y2], 2, 0)
        b = aggregate([x1, aggregate([y1, x2, y2], 3, 0)], 2, 0)
        assert a.lo.tolist() == b.lo.tolist()
        assert a.hi.tolist() == b.hi.tolist()
