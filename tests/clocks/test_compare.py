"""Unit tests: the HeadMatrix memoized comparison engine."""

import numpy as np
import pytest

from repro.clocks import HeadMatrix, freeze, vc_less


def bounds(lo, hi):
    return freeze(lo), freeze(hi)


def brute_lo_lt_hi(mat, keys, table):
    """Reference: recompute every pair with vc_less from raw bounds."""
    return {
        (a, b): vc_less(table[a][0], table[b][1])
        for a in keys
        for b in keys
        if a != b
    }


class TestHeadMatrixQueries:
    def test_partners_matches_vc_less(self, rng):
        keys = list("abcde")
        mat = HeadMatrix(keys)
        table = {}
        for key in keys:
            lo = freeze(rng.integers(0, 6, 8))
            hi = freeze(np.asarray(lo) + rng.integers(0, 6, 8))
            table[key] = (lo, hi)
            mat.set_head(key, lo, hi)
        expected = brute_lo_lt_hi(mat, keys, table)
        for a in keys:
            others, x_lt, y_lt = mat.partners(a)
            assert others == [k for k in keys if k != a]
            for b, x_flag, y_flag in zip(others, x_lt, y_lt):
                assert x_flag == expected[(a, b)]
                assert y_flag == expected[(b, a)]

    def test_dominators_matches_vc_less(self, rng):
        keys = list(range(6))
        mat = HeadMatrix(keys)
        table = {}
        for key in keys:
            lo = freeze(rng.integers(0, 5, 4))
            hi = freeze(np.asarray(lo) + rng.integers(0, 5, 4))
            table[key] = (lo, hi)
            mat.set_head(key, lo, hi)
        for a in keys:
            others, flags = mat.dominators(a)
            assert others == [k for k in keys if k != a]
            for b, flag in zip(others, flags):
                assert flag == vc_less(table[b][1], table[a][1])

    def test_absent_heads_are_skipped(self):
        mat = HeadMatrix(["a", "b", "c"])
        mat.set_head("a", *bounds([0, 0], [5, 5]))
        mat.set_head("b", *bounds([1, 1], [6, 6]))
        others, _, _ = mat.partners("a")
        assert others == ["b"]
        mat.set_head("c", *bounds([2, 2], [7, 7]))
        others, _, _ = mat.partners("a")
        assert others == ["b", "c"]

    def test_pair_lookups(self):
        mat = HeadMatrix(["a", "b"])
        mat.set_head("a", *bounds([0, 0], [3, 3]))
        mat.set_head("b", *bounds([1, 1], [4, 4]))
        assert mat.lo_less_hi("a", "b")
        assert mat.hi_less_hi("a", "b")
        assert not mat.hi_less_hi("b", "a")
        assert mat.has_head("a")
        assert mat.present_keys() == ["a", "b"]


class TestMemoizationContract:
    def test_query_without_head_change_does_not_recompute(self):
        mat = HeadMatrix(["a", "b", "c"])
        for i, key in enumerate(["a", "b", "c"]):
            mat.set_head(key, *bounds([i, i], [i + 4, i + 4]))
        mat.partners("a")
        baseline = mat.refreshes
        for _ in range(5):
            mat.partners("a")
            mat.partners("b")
            mat.lo_less_hi("a", "c")
        assert mat.refreshes == baseline

    def test_set_head_invalidates_both_tables(self):
        mat = HeadMatrix(["a", "b"])
        mat.set_head("a", *bounds([0, 0], [9, 9]))
        mat.set_head("b", *bounds([1, 1], [8, 8]))
        mat.partners("a")
        mat.dominators("a")
        before = mat.refreshes
        mat.set_head("a", *bounds([2, 2], [7, 7]))
        mat.partners("a")
        mat.dominators("a")
        assert mat.refreshes == before + 2  # one per table

    def test_dominance_table_refreshes_independently(self):
        # Activations that never reach a solution must not pay for the
        # Eq. (10) table.
        mat = HeadMatrix(["a", "b"])
        mat.set_head("a", *bounds([0, 0], [9, 9]))
        mat.set_head("b", *bounds([1, 1], [8, 8]))
        mat.partners("a")
        lo_only = mat.refreshes
        mat.dominators("a")
        assert mat.refreshes == lo_only + 1

    def test_clear_head_removes_from_queries(self):
        mat = HeadMatrix(["a", "b", "c"])
        for i, key in enumerate(["a", "b", "c"]):
            mat.set_head(key, *bounds([i, i], [i + 4, i + 4]))
        mat.partners("a")
        mat.clear_head("b")
        others, _, _ = mat.partners("a")
        assert others == ["c"]
        assert not mat.has_head("b")

    def test_lone_present_head_skips_refresh_entirely(self):
        mat = HeadMatrix(["a", "b"])
        mat.set_head("a", *bounds([0, 0], [5, 5]))
        mat.partners("a")
        assert mat.refreshes == 0
        # The pair appears correctly once a second head shows up.
        mat.set_head("b", *bounds([1, 1], [6, 6]))
        others, x_lt, y_lt = mat.partners("a")
        assert others == ["b"] and x_lt == [True] and y_lt == [True]


class TestKeyManagement:
    def test_add_and_remove_keys(self):
        mat = HeadMatrix(["a"])
        mat.set_head("a", *bounds([0, 0], [5, 5]))
        mat.add_key("b")
        assert "b" in mat and len(mat) == 2
        mat.set_head("b", *bounds([1, 1], [6, 6]))
        assert mat.partners("a")[0] == ["b"]
        mat.remove_key("b")
        assert "b" not in mat
        assert mat.partners("a")[0] == []

    def test_duplicate_add_rejected(self):
        mat = HeadMatrix(["a"])
        with pytest.raises(KeyError):
            mat.add_key("a")

    def test_row_reuse_preserves_insertion_order(self):
        # Removing a key frees its row; a new key reuses it but must
        # still enumerate *last* (insertion order, not row order) so the
        # engine matches the core's queues-dict iteration.
        mat = HeadMatrix(["a", "b", "c"])
        for i, key in enumerate(["a", "b", "c"]):
            mat.set_head(key, *bounds([i, i], [i + 9, i + 9]))
        mat.remove_key("a")
        mat.add_key("d")
        mat.set_head("d", *bounds([3, 3], [12, 12]))
        assert mat.partners("b")[0] == ["c", "d"]

    def test_growth_past_initial_capacity(self, rng):
        keys = list(range(20))  # forces _grow() and the incremental path
        mat = HeadMatrix(keys)
        table = {}
        for key in keys:
            lo = freeze(rng.integers(0, 4, 6))
            hi = freeze(np.asarray(lo) + rng.integers(0, 4, 6))
            table[key] = (lo, hi)
            mat.set_head(key, lo, hi)
        expected = brute_lo_lt_hi(mat, keys, table)
        for a in keys:
            others, x_lt, _ = mat.partners(a)
            for b, flag in zip(others, x_lt):
                assert flag == expected[(a, b)]
        # Incremental refresh of a single changed row stays consistent.
        lo = freeze(rng.integers(0, 4, 6))
        hi = freeze(np.asarray(lo) + rng.integers(0, 4, 6))
        table[7] = (lo, hi)
        mat.set_head(7, lo, hi)
        expected = brute_lo_lt_hi(mat, keys, table)
        for a in keys:
            others, x_lt, _ = mat.partners(a)
            for b, flag in zip(others, x_lt):
                assert flag == expected[(a, b)]

    def test_mismatched_vector_length_rejected(self):
        mat = HeadMatrix(["a"])
        mat.set_head("a", *bounds([0, 0], [1, 1]))
        with pytest.raises(ValueError):
            mat.set_head("a", freeze([0, 0, 0]), freeze([1, 1, 1]))


class TestRandomizedEquivalence:
    """Random add/remove/set/clear sequences against a ``vc_less`` model:
    every query answers what per-pair recomputation from the raw bounds
    answers, across capacity growth and row reuse, and tables are only
    ever recomputed after a head changed."""

    @staticmethod
    def _check_queries(mat, model, order):
        present = [k for k in order if model[k] is not None]
        assert mat.present_keys() == present
        for a in present:
            lo_a, hi_a = model[a]
            rest = [b for b in present if b != a]
            others, x_lt, y_lt = mat.partners(a)
            assert others == rest
            assert x_lt == [vc_less(lo_a, model[b][1]) for b in rest]
            assert y_lt == [vc_less(model[b][0], hi_a) for b in rest]
            others, flags = mat.dominators(a)
            assert others == rest
            assert flags == [vc_less(model[b][1], hi_a) for b in rest]
            for b in rest:
                assert mat.lo_less_hi(a, b) == vc_less(lo_a, model[b][1])
                assert mat.hi_less_hi(a, b) == vc_less(hi_a, model[b][1])

    @pytest.mark.parametrize("n", [1, 7, 85])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_vc_less(self, n, seed):
        rng = np.random.default_rng([seed, n])
        mat, model, order = HeadMatrix(), {}, []
        next_key = 0
        for step in range(400):
            op = rng.integers(0, 10)
            if (op == 0 and len(order) < 20) or not order:
                mat.add_key(next_key)
                model[next_key] = None
                order.append(next_key)
                next_key += 1
                changed = False
            elif op == 1 and len(order) > 1:
                key = order.pop(int(rng.integers(0, len(order))))
                mat.remove_key(key)
                del model[key]
                changed = False
            elif op == 2:
                key = order[int(rng.integers(0, len(order)))]
                mat.clear_head(key)
                model[key] = None
                changed = False
            else:
                # Small values on purpose: equal and incomparable bounds
                # are common, so strictness and both directions matter.
                key = order[int(rng.integers(0, len(order)))]
                lo = freeze(rng.integers(0, 3, n))
                hi = freeze(np.asarray(lo) + rng.integers(0, 3, n))
                mat.set_head(key, lo, hi)
                model[key] = (lo, hi)
                changed = True
            before = mat.refreshes
            self._check_queries(mat, model, order)
            if not changed:
                # add/remove/clear invalidate nothing that is still read
                assert mat.refreshes == before
            else:
                assert mat.refreshes <= before + 2  # at most one per table
            settled = mat.refreshes
            self._check_queries(mat, model, order)
            assert mat.refreshes == settled
        assert next_key > 8  # the sequence crossed the initial capacity

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 16, 20])
    def test_single_and_bulk_changes_at_every_size(self, k, rng):
        # One dirty head takes the row/column path on tables of four or
        # more rows, many dirty heads the broadcast: both must agree with
        # the model at every k, including right at the capacity edge.
        n = 7
        mat = HeadMatrix(range(k))
        model = {}
        for key in range(k):
            lo = freeze(rng.integers(0, 4, n))
            model[key] = (lo, freeze(np.asarray(lo) + rng.integers(0, 4, n)))
            mat.set_head(key, *model[key])
        self._check_queries(mat, model, list(range(k)))
        for key in rng.permutation(k):
            lo = freeze(rng.integers(0, 4, n))
            model[int(key)] = (lo, freeze(np.asarray(lo) + rng.integers(0, 4, n)))
            mat.set_head(int(key), *model[int(key)])
            before_rows = mat.refreshed_rows
            self._check_queries(mat, model, list(range(k)))
            if k > 1:
                assert mat.refreshed_rows == before_rows + 2  # this head, each table
