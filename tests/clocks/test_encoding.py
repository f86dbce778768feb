"""Unit + property tests: timestamp compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    best_encoding,
    decode_differential,
    decode_sparse,
    encode_differential,
    encode_sparse,
    freeze,
)
from repro.clocks.encoding import channel_reference, pair_arrays, pair_cost

vectors = st.lists(st.integers(0, 50), min_size=1, max_size=16).map(freeze)


class TestSparse:
    def test_round_trip_example(self):
        ts = freeze([0, 5, 0, 0, 2])
        payload, entries = encode_sparse(ts)
        assert payload == [(1, 5), (4, 2)]
        assert entries == 5
        assert decode_sparse(payload, 5).tolist() == ts.tolist()

    def test_zero_vector_is_one_entry(self):
        payload, entries = encode_sparse(freeze([0, 0, 0]))
        assert payload == [] and entries == 1

    @settings(max_examples=150)
    @given(vectors)
    def test_round_trip_property(self, ts):
        payload, entries = encode_sparse(ts)
        assert decode_sparse(payload, len(ts)).tolist() == ts.tolist()
        assert entries == 1 + 2 * int(np.count_nonzero(ts))


class TestDifferential:
    def test_unchanged_costs_one_entry(self):
        ts = freeze([3, 4, 5])
        payload, entries = encode_differential(ts, ts)
        assert payload == [] and entries == 1
        assert decode_differential(payload, ts, 3).tolist() == [3, 4, 5]

    def test_partial_change(self):
        ref = freeze([3, 4, 5, 6])
        ts = freeze([3, 9, 5, 7])
        payload, entries = encode_differential(ts, ref)
        assert payload == [(1, 9), (3, 7)]
        assert entries == 5
        assert decode_differential(payload, ref, 4).tolist() == ts.tolist()

    def test_no_reference_falls_back_to_sparse(self):
        ts = freeze([0, 2])
        assert encode_differential(ts, None) == encode_sparse(ts)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_differential(freeze([1, 2]), freeze([1, 2, 3]))

    @pytest.mark.parametrize("index", [3, 2**40, -1, -3])
    def test_pair_index_outside_the_vector_rejected(self, index):
        # A payload comes off the wire: past the end is no IndexError,
        # and a negative index never wraps around to component n + index.
        with pytest.raises(ValueError, match="pair index"):
            decode_sparse([(index, 5)], 3)
        with pytest.raises(ValueError, match="pair index"):
            decode_differential([(0, 1), (index, 5)], freeze([1, 2, 3]), 3)

    @settings(max_examples=150)
    @given(vectors, st.data())
    def test_round_trip_property(self, ref, data):
        bump = data.draw(
            st.lists(st.integers(0, 5), min_size=len(ref), max_size=len(ref))
        )
        ts = freeze(np.asarray(ref) + bump)
        payload, _ = encode_differential(ts, ref)
        assert decode_differential(payload, ref, len(ref)).tolist() == ts.tolist()


class TestBestEncoding:
    def test_picks_raw_for_dense_changes(self):
        ref = freeze([1] * 8)
        ts = freeze(range(2, 10))  # every component changed, all non-zero
        name, entries = best_encoding(ts, ref)
        assert name == "raw" and entries == 8

    def test_picks_differential_for_localized_change(self):
        ref = freeze([5] * 16)
        ts = np.array(ref)
        ts.setflags(write=True)
        ts[3] += 1
        name, entries = best_encoding(freeze(ts), ref)
        assert name == "differential" and entries == 3

    def test_picks_sparse_early_in_run(self):
        ts = freeze([0] * 15 + [1])
        name, entries = best_encoding(ts, None)
        assert name == "sparse" and entries == 3

    @settings(max_examples=100)
    @given(vectors)
    def test_never_worse_than_raw(self, ts):
        _, entries = best_encoding(ts, None)
        assert entries <= len(ts)


def _decode(name, ts, ref):
    """Encode *ts* with the scheme best_encoding picked, then invert it —
    the exact round trip the repro.net frame codec performs per frame."""
    if name == "sparse":
        payload, _ = encode_sparse(ts)
        return decode_sparse(payload, len(ts))
    if name == "differential":
        payload, _ = encode_differential(ts, ref)
        return decode_differential(payload, ref, len(ts))
    return np.array(ts, dtype=np.int64)


#: Adversarial component values: zeros, tiny counts, and deltas near the
#: int64 edge (vector clocks never get there, but the codec must not
#: corrupt them if they did).
adversarial_components = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.integers(2**40, 2**62),
)
adversarial_vectors = st.lists(
    adversarial_components, min_size=1, max_size=24
).map(freeze)


class TestAdversarialRoundTrip:
    @settings(max_examples=200)
    @given(adversarial_vectors)
    def test_best_encoding_inverts_without_reference(self, ts):
        name, entries = best_encoding(ts, None)
        assert entries <= len(ts)
        assert _decode(name, ts, None).tolist() == ts.tolist()

    @settings(max_examples=200)
    @given(adversarial_vectors, st.data())
    def test_best_encoding_inverts_against_reference(self, ref, data):
        bumps = data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(0, 2), st.integers(2**30, 2**40)),
                min_size=len(ref),
                max_size=len(ref),
            )
        )
        ts = freeze(np.asarray(ref, dtype=np.int64) + np.asarray(bumps, dtype=np.int64))
        name, entries = best_encoding(ts, ref)
        assert entries <= len(ts)
        assert _decode(name, ts, ref).tolist() == ts.tolist()

    def test_a_stalled_example_is_not_a_counter_example(self):
        """``test_best_encoding_inverts_without_reference`` failed once
        in six full runs.  300 seeds x 200 examples with the deadline
        off found no counter-example (the property cannot fail: raw
        bounds the cost, and sparse pairs invert exactly below 2**63);
        one example held off the CPU past hypothesis's 200 ms deadline
        reproduces the failure as ``FlakyFailure``.  The suite's profile
        (tests/conftest.py) therefore sets no deadline."""
        import time

        examples = []

        @settings(max_examples=60)
        @given(adversarial_vectors)
        def stalled_once(ts):
            examples.append(ts)
            if len(examples) == 30:
                time.sleep(0.25)
            name, _ = best_encoding(ts, None)
            assert _decode(name, ts, None).tolist() == ts.tolist()

        stalled_once()
        assert len(examples) >= 30

    def test_all_zero_vector(self):
        ts = freeze([0] * 12)
        name, entries = best_encoding(ts, None)
        assert _decode(name, ts, None).tolist() == ts.tolist()
        assert entries == 1  # the empty sparse payload

    def test_single_entry_vector(self):
        ts = freeze([41])
        for ref in (None, freeze([40]), freeze([0])):
            name, _ = best_encoding(ts, ref)
            assert _decode(name, ts, ref).tolist() == [41]

    def test_large_delta_against_stale_reference(self):
        ref = freeze([1, 1, 1, 1])
        ts = freeze([1, 2**62, 1, 1])
        name, _ = best_encoding(ts, ref)
        assert _decode(name, ts, ref).tolist() == ts.tolist()

    @settings(max_examples=100)
    @given(adversarial_vectors)
    def test_chained_references_stay_consistent(self, ts):
        # Simulate the codec's per-channel reference chain: each frame's
        # timestamp becomes the next frame's reference.
        ref = None
        clock = np.array(ts, dtype=np.int64)
        for step in range(4):
            name, _ = best_encoding(freeze(clock), ref)
            decoded = _decode(name, freeze(clock), ref)
            assert decoded.tolist() == clock.tolist()
            ref = freeze(decoded)
            clock = clock + (step % 2)  # alternate no-change / bump-all


def _built_best_encoding(ts, reference):
    """The pricing this module used before the count-only kernel: build
    every candidate payload, read its length, first minimum wins."""
    options = [("raw", len(ts)), ("sparse", encode_sparse(ts)[1])]
    if reference is not None:
        options.append(("differential", encode_differential(ts, reference)[1]))
    return min(options, key=lambda pair: pair[1])


class TestCostKernel:
    """``pair_cost`` counts what the encoders build; ``best_encoding``
    prices through it and must pick exactly what payload-building
    pricing picked."""

    @settings(max_examples=200)
    @given(adversarial_vectors, st.data())
    def test_cost_equals_built_entries(self, ref, data):
        bumps = data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(0, 2), st.integers(2**40, 2**61)),
                min_size=len(ref),
                max_size=len(ref),
            )
        )
        ts = freeze(np.asarray(ref, dtype=np.int64) + np.asarray(bumps, dtype=np.int64))
        for against in (None, ref, ts):
            payload, entries = encode_differential(ts, against)
            assert pair_cost(ts, against) == entries == 1 + 2 * len(payload)
            indices, values = pair_arrays(ts, against)
            assert list(zip(indices.tolist(), values.tolist())) == payload
        assert pair_cost(ts) == encode_sparse(ts)[1]
        assert best_encoding(ts, None) == _built_best_encoding(ts, None)
        assert best_encoding(ts, ref) == _built_best_encoding(ts, ref)

    @settings(max_examples=100)
    @given(adversarial_vectors)
    def test_choice_unchanged_along_a_reference_chain(self, ts):
        ref = None
        clock = np.array(ts, dtype=np.int64)
        for step, bump in enumerate((0, 1, 0, 2**40, 1)):  # no-change, tick, jump
            frozen = freeze(clock)
            assert best_encoding(frozen, ref) == _built_best_encoding(frozen, ref)
            ref = frozen
            clock = clock.copy()
            clock[step % len(clock)] += bump

    @pytest.mark.parametrize(
        "ts, ref, expected",
        [
            ([0] * 12, None, ("sparse", 1)),  # all zeros
            ([0] * 12, [0] * 12, ("sparse", 1)),  # sparse/differential tie -> sparse
            ([41], None, ("raw", 1)),  # single entry: raw/sparse-beats nothing
            ([41], [41], ("raw", 1)),  # raw/differential tie at 1 -> raw
            ([0], [0], ("raw", 1)),  # three-way tie -> raw
            ([1, 1, 0], None, ("raw", 3)),  # sparse would cost 5
            ([1, 0, 0], None, ("raw", 3)),  # raw/sparse tie at 3 -> raw
            ([1, 0, 0, 0], [0, 0, 0, 0], ("sparse", 3)),  # sparse/differential tie
            ([5, 5, 5, 6], [5, 5, 5, 5], ("differential", 3)),
            ([1, 2**62, 1, 1], [1, 1, 1, 1], ("differential", 3)),  # 2**62 delta
        ],
    )
    def test_ties_go_raw_then_sparse_then_differential(self, ts, ref, expected):
        ts = freeze(ts)
        ref = None if ref is None else freeze(ref)
        assert best_encoding(ts, ref) == expected == _built_best_encoding(ts, ref)

    def test_shape_mismatch_is_the_same_error_everywhere(self):
        ts, wide = freeze([1, 2]), freeze([1, 2, 3])
        for price in (pair_cost, pair_arrays, best_encoding, encode_differential):
            with pytest.raises(ValueError, match="same number of components"):
                price(ts, wide)

    def test_channel_reference_restarts_on_width_change(self):
        previous, ts = freeze([1, 2]), freeze([1, 2, 3])
        assert channel_reference(None, ts) is None
        assert channel_reference(previous, previous) is previous
        assert channel_reference(previous, ts) is None
        # ...which is what makes the next price a from-scratch one
        restarted = channel_reference(previous, ts)
        assert best_encoding(ts, restarted) == best_encoding(ts, None)
