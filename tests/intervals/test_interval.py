"""Unit tests: the Interval data type."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.intervals import Interval, aggregate

from ..conftest import make_interval


class TestConstruction:
    def test_members_default_to_owner_singleton(self):
        iv = make_interval(3, 0, [0, 0, 0, 1], [0, 0, 0, 4])
        assert iv.members == frozenset({3})

    def test_bounds_frozen(self):
        iv = make_interval(0, 0, [1, 0], [2, 0])
        with pytest.raises(ValueError):
            iv.lo[0] = 9

    def test_rejects_out_of_order_bounds(self):
        with pytest.raises(ValueError):
            make_interval(0, 0, [2, 0], [1, 5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Interval(owner=0, seq=0, lo=np.array([1, 0]), hi=np.array([1, 0, 0]))

    def test_equal_bounds_allowed(self):
        # A single-event interval has lo == hi.
        iv = make_interval(1, 0, [0, 1], [0, 1])
        assert iv.n == 2


class TestIdentity:
    def test_equality_and_hash(self):
        a = make_interval(0, 0, [1, 0], [3, 0])
        b = make_interval(0, 0, [1, 0], [3, 0])
        c = make_interval(0, 1, [1, 0], [3, 0])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_not_equal_to_other_types(self):
        assert make_interval(0, 0, [1], [2]) != "interval"

    def test_key_is_cached_and_stable(self):
        iv = make_interval(2, 5, [1, 0], [3, 0])
        first = iv.key()
        assert iv.key() is first  # lazily computed once, then reused
        assert first == (2, 5, iv.lo.tobytes(), iv.hi.tobytes())

    @given(
        owner=st.integers(0, 5),
        seq=st.integers(0, 5),
        lo=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        bump=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    )
    def test_key_cache_preserves_hash_eq_semantics(self, owner, seq, lo, bump):
        """hash/eq must behave exactly as if key() were recomputed."""
        hi = [a + b for a, b in zip(lo, bump + [0] * len(lo))]
        a = make_interval(owner, seq, lo, hi)
        b = make_interval(owner, seq, list(lo), list(hi))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key() and a.key() is not b.key()
        different = make_interval(owner, seq + 1, lo, hi)
        assert a != different and a.key() != different.key()
        # Cached key still reflects the (immutable) bounds verbatim.
        assert a.key() == (owner, seq, a.lo.tobytes(), a.hi.tobytes())


class TestProvenance:
    def test_concrete_leaf_is_self(self):
        iv = make_interval(0, 0, [1, 0], [2, 0])
        assert list(iv.concrete_leaves()) == [iv]
        assert not iv.is_aggregated

    def test_aggregate_unfolds_to_concrete(self):
        x = make_interval(0, 0, [1, 0], [3, 2])
        y = make_interval(1, 0, [0, 1], [2, 3])
        agg = aggregate([x, y], owner=9, seq=0)
        assert agg.is_aggregated
        assert set(agg.concrete_leaves()) == {x, y}
        assert agg.members == frozenset({0, 1})

    def test_nested_aggregation_unfolds_fully(self):
        x = make_interval(0, 0, [1, 0, 0], [3, 2, 2])
        y = make_interval(1, 0, [0, 1, 0], [2, 3, 2])
        z = make_interval(2, 0, [0, 0, 1], [2, 2, 3])
        inner = aggregate([x, y], owner=5, seq=0)
        outer = aggregate([inner, z], owner=6, seq=0)
        assert set(outer.concrete_leaves()) == {x, y, z}
        assert outer.members == frozenset({0, 1, 2})


class TestImmutability:
    def test_assignment_raises(self):
        iv = make_interval(0, 0, [1, 0], [2, 0])
        for name, value in (("seq", 7), ("lo", np.array([0, 0])), ("members", frozenset())):
            with pytest.raises(FrozenInstanceError):
                setattr(iv, name, value)
        with pytest.raises(AttributeError):
            iv.extra = 1  # no __dict__ to put it in either
        with pytest.raises(FrozenInstanceError):
            del iv.owner
        assert iv.seq == 0 and iv.lo.tolist() == [1, 0]

    def test_public_constructor_copies_views_and_checks(self):
        block = np.array([[1, 0], [2, 0]])
        block.setflags(write=False)
        iv = Interval(owner=0, seq=0, lo=block[0], hi=block[1])
        assert iv.lo.base is None and iv.hi.base is None
        with pytest.raises(ValueError, match="out of order"):
            Interval(owner=0, seq=0, lo=block[1], hi=block[0])


class TestPickling:
    """Intervals cross process boundaries (``ShardedRunner`` workers)."""

    def _round_trips(self, iv):
        for rebuilt in (pickle.loads(pickle.dumps(iv)), copy.deepcopy(iv)):
            assert rebuilt == iv and rebuilt.key() == iv.key()
            assert rebuilt.members == iv.members and rebuilt.parts == iv.parts
            assert not rebuilt.lo.flags.writeable and not rebuilt.hi.flags.writeable
            with pytest.raises(FrozenInstanceError):
                rebuilt.seq = 1

    def test_concrete(self):
        self._round_trips(make_interval(3, 4, [1, 0, 2], [2, 5, 2]))

    def test_aggregate_keeps_its_provenance(self):
        x = make_interval(0, 0, [1, 0], [3, 2])
        y = make_interval(1, 0, [0, 1], [2, 3])
        agg = aggregate([x, y], owner=9, seq=2)
        self._round_trips(agg)
        rebuilt = pickle.loads(pickle.dumps(agg))
        assert set(rebuilt.concrete_leaves()) == {x, y}

    def test_decoded_interval_round_trips_owned(self):
        from repro.net import FrameCodec
        from repro.sim.messages import IntervalReport

        x = make_interval(0, 0, [1, 0], [3, 2])
        agg = aggregate([x, make_interval(1, 0, [0, 1], [2, 3])], owner=9, seq=2)
        codec = FrameCodec()
        got = codec.decode(codec.encode(IntervalReport(origin=1, dest=0, interval=agg)))
        assert got.interval.lo.base is not None  # a view of the frame's block
        self._round_trips(got.interval)
        rebuilt = pickle.loads(pickle.dumps(got.interval))
        assert rebuilt.lo.base is None and rebuilt == agg
