"""Vectorized, incremental head-pair comparison engine.

Algorithm 1's activations are dominated by ``≮`` tests between queue
*heads*: the lines 4–17 fixpoint tests ``min(x) < max(y)`` over head
pairs, and Eq. (10) pruning tests ``max(x) < max(y)`` over the same
heads again.  Calling :func:`~repro.clocks.vector_clock.vc_less` per
pair costs a numpy dispatch (plus two temporaries) per test, and —
worse — every activation repeats tests whose operands did not change:
a head only changes when its queue's front is dequeued or a fresh
interval lands in an empty queue.

:class:`HeadMatrix` exploits that.  It keeps the current heads' ``lo``
and ``hi`` timestamps stacked as ``(capacity, n)`` arrays and memoizes
the two boolean pair tables

* ``lo_rows[i][j]  =  lo_i < hi_j``   (the fixpoint / overlap test)
* ``hi_rows[i][j]  =  hi_i < hi_j``   (the Eq. (10) dominance test)

Tables are recomputed lazily when a head changed and kept as nested
Python lists, so the per-pair queries issued by the detection core are
plain list indexing with no numpy dispatch at all.  A refresh only ever
touches the *used* rows (the queues that exist — never the spare
capacity the bound arrays are allocated with), and only what a changed
head can have changed: when few heads are dirty, the dirty head's row
and column (two ``(k, n)`` passes; the common case is one offer landing
on an empty queue); when many are, one ``(k, k, n)`` broadcast over the
used rows.  The two tables invalidate independently: the dominance
table is only consulted when a solution is found, so activations that
never reach line 18 never pay for it.

The detection core calls :meth:`set_head` / :meth:`clear_head` on every
head transition and :meth:`add_key` / :meth:`remove_key` when the fault
layer rewires its queues; that is the entire invalidation contract (see
docs/performance.md).

The class lives in :mod:`repro.clocks` because it only speaks
timestamps; it knows nothing about intervals or queues.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["HeadMatrix"]


class HeadMatrix:
    """Stacked queue-head bounds with memoized pairwise comparisons.

    Keys are arbitrary hashables (the detection core's queue keys) and
    keep their insertion order, so partner enumeration matches the
    core's ``queues.items()`` iteration exactly — a requirement for
    prune streams byte-identical to the per-pair oracle's
    (:class:`~repro.detect.offline.ScalarReferenceCore`).

    ``refreshes`` / ``refreshed_rows`` count lazy recomputations; tests
    use them to assert the memoization/invalidation contract (a query
    after no head change must not recompute anything).
    """

    __slots__ = (
        "_keys",
        "_order",
        "_free",
        "_used",
        "_n",
        "_los",
        "_his",
        "_pres",
        "_lo_rows",
        "_hi_rows",
        "_dirty_lo",
        "_dirty_hi",
        "refreshes",
        "refreshed_rows",
    )

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._keys: Dict[Hashable, int] = {}
        #: (key, row) pairs in key-insertion order
        self._order: List[Tuple[Hashable, int]] = []
        self._free: List[int] = []
        #: rows ever handed out; ``_pres`` and both tables are exactly
        #: this size, the bound arrays at least this size
        self._used = 0
        self._n: Optional[int] = None
        self._los: Optional[np.ndarray] = None
        self._his: Optional[np.ndarray] = None
        self._pres: List[bool] = []
        self._lo_rows: List[List[bool]] = []
        self._hi_rows: List[List[bool]] = []
        self._dirty_lo: set[int] = set()
        self._dirty_hi: set[int] = set()
        self.refreshes = 0
        self.refreshed_rows = 0
        for key in keys:
            self.add_key(key)

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------
    def _new_row(self) -> int:
        """Hand out a never-used row: one more entry in ``_pres`` and one
        more row and column in both tables; the bound arrays double when
        they run out (amortized, and invisible to refreshes, which slice
        them to ``_used``)."""
        row = self._used
        self._used += 1
        self._pres.append(False)
        for table in (self._lo_rows, self._hi_rows):
            for flags in table:
                flags.append(False)
            table.append([False] * self._used)
        if self._los is not None and self._used > len(self._los):
            self._los = self._doubled(self._los)
            self._his = self._doubled(self._his)
        return row

    @staticmethod
    def _doubled(bounds: np.ndarray) -> np.ndarray:
        grown = np.zeros((2 * len(bounds), bounds.shape[1]), dtype=np.int64)
        grown[: len(bounds)] = bounds
        return grown

    def _init_bounds(self, n: int) -> None:
        self._n = n
        capacity = max(8, self._used)
        self._los = np.zeros((capacity, n), dtype=np.int64)
        self._his = np.zeros((capacity, n), dtype=np.int64)

    # ------------------------------------------------------------------
    # key management (mirrors the core's queue dict)
    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def add_key(self, key: Hashable) -> None:
        """Open a slot for *key* (initially no head)."""
        if key in self._keys:
            raise KeyError(f"key {key!r} already tracked")
        row = self._free.pop() if self._free else self._new_row()
        self._keys[key] = row
        self._order.append((key, row))

    def remove_key(self, key: Hashable) -> None:
        row = self._keys.pop(key)
        self._pres[row] = False
        self._dirty_lo.discard(row)
        self._dirty_hi.discard(row)
        self._free.append(row)
        self._order = [(k, r) for k, r in self._order if r != row]

    # ------------------------------------------------------------------
    # head transitions (the invalidation contract)
    # ------------------------------------------------------------------
    def set_head(self, key: Hashable, lo: np.ndarray, hi: np.ndarray) -> None:
        """*key*'s queue head is now the interval with bounds (lo, hi)."""
        row = self._keys[key]
        if self._n is None:
            self._init_bounds(lo.shape[0])
        elif lo.shape[0] != self._n:
            raise ValueError(
                f"timestamp has {lo.shape[0]} components, matrix built for {self._n}"
            )
        self._los[row] = lo
        self._his[row] = hi
        self._pres[row] = True
        self._dirty_lo.add(row)
        self._dirty_hi.add(row)

    def clear_head(self, key: Hashable) -> None:
        """*key*'s queue is now empty."""
        row = self._keys[key]
        self._pres[row] = False
        self._dirty_lo.discard(row)
        self._dirty_hi.discard(row)

    # ------------------------------------------------------------------
    # lazy refresh
    # ------------------------------------------------------------------
    def _refresh(self, dirty: set, rows: List[List[bool]], left: np.ndarray) -> None:
        """Bring one comparison table up to date.

        ``left`` is the bound compared on the left-hand side (``lo`` for
        the fixpoint table, ``hi`` for the dominance table); the
        right-hand side is always ``hi``.
        """
        live = [r for r in dirty if self._pres[r]]
        dirty.clear()
        if not live or self._los is None:
            return
        if self._pres.count(True) <= 1:
            # A lone present head has no pairs to compare (leaf cores hit
            # this on every offer).  Safe to skip: when another head
            # appears its own refresh recomputes both cross entries.
            return
        self.refreshes += 1
        self.refreshed_rows += len(live)
        used = self._used
        left = left[:used]
        his = self._his[:used]
        if 3 * len(live) < used:
            # Few heads changed: only their rows and columns can have.
            # (Row/column passes beat the broadcast while fewer than a third
            # of the used rows are dirty — measured in docs/performance.md.)
            for i in live:
                mine, theirs = left[i], his[i]
                row = (mine <= his).all(axis=1) & (mine < his).any(axis=1)
                col = (left <= theirs).all(axis=1) & (left < theirs).any(axis=1)
                rows[i] = row.tolist()
                for flags, flag in zip(rows, col.tolist()):
                    flags[i] = flag
        else:
            # One broadcast over the used rows.
            le = left[:, None, :] <= his[None, :, :]
            lt = left[:, None, :] < his[None, :, :]
            rows[:] = (le.all(axis=2) & lt.any(axis=2)).tolist()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def partners(self, key: Hashable) -> Tuple[list, list, list]:
        """Fixpoint flags for *key* against every other present head.

        Returns ``(others, x_lt, y_lt)`` where ``others`` lists the
        other keys with a present head in insertion order,
        ``x_lt[j] = (lo_key < hi_others[j])`` and
        ``y_lt[j] = (lo_others[j] < hi_key)`` — the two ``≮`` tests of
        Algorithm 1 lines 12/14 for each pair.
        """
        if self._dirty_lo:
            self._refresh(self._dirty_lo, self._lo_rows, self._los)
        ra = self._keys[key]
        pres = self._pres
        lo_rows = self._lo_rows
        row = lo_rows[ra]
        others: list = []
        x_lt: List[bool] = []
        y_lt: List[bool] = []
        for b, rb in self._order:
            if rb == ra or not pres[rb]:
                continue
            others.append(b)
            x_lt.append(row[rb])
            y_lt.append(lo_rows[rb][ra])
        return others, x_lt, y_lt

    def dominators(self, key: Hashable) -> Tuple[list, list]:
        """Eq. (10) flags: ``(others, flags)`` with
        ``flags[j] = (hi_others[j] < hi_key)`` in insertion order."""
        if self._dirty_hi:
            self._refresh(self._dirty_hi, self._hi_rows, self._his)
        ra = self._keys[key]
        pres = self._pres
        hi_rows = self._hi_rows
        others: list = []
        flags: List[bool] = []
        for b, rb in self._order:
            if rb == ra or not pres[rb]:
                continue
            others.append(b)
            flags.append(hi_rows[rb][ra])
        return others, flags

    def lo_less_hi(self, a: Hashable, b: Hashable) -> bool:
        """``lo_a < hi_b`` from the cache (both heads must be present)."""
        if self._dirty_lo:
            self._refresh(self._dirty_lo, self._lo_rows, self._los)
        return bool(self._lo_rows[self._keys[a]][self._keys[b]])

    def hi_less_hi(self, a: Hashable, b: Hashable) -> bool:
        """``hi_a < hi_b`` from the cache (both heads must be present)."""
        if self._dirty_hi:
            self._refresh(self._dirty_hi, self._hi_rows, self._his)
        return bool(self._hi_rows[self._keys[a]][self._keys[b]])

    def has_head(self, key: Hashable) -> bool:
        return self._pres[self._keys[key]]

    def present_keys(self) -> List[Hashable]:
        """Keys with a present head, in insertion order."""
        return [k for k, r in self._order if self._pres[r]]
