"""Interval aggregation — the ``⊓`` operator of Section III-C.

For a set ``X`` of intervals with ``overlap(X)`` true, the aggregated
interval ``⊓(X)`` is defined component-wise (Eq. 5–6):

* ``min(⊓(X))[i] = max_{x ∈ X} (min(x)[i])``
* ``max(⊓(X))[i] = min_{x ∈ X} (max(x)[i])``

Theorem 1 / Lemma 1 justify substituting ``⊓(X)`` for the whole set when
detecting ``Definitely(Φ)`` in a larger union, and Eq. (7) shows the
operator is associative over unions: ``⊓(⊓(X), ⊓(Y)) = ⊓(X ∪ Y)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..clocks import vc_le
from .interval import Interval
from .overlap import overlap

__all__ = ["aggregate", "can_aggregate"]


def can_aggregate(intervals: Iterable[Interval]) -> bool:
    """True when ``⊓`` may be applied, i.e. ``overlap(X)`` holds."""
    return overlap(intervals)

def aggregate(
    intervals: Sequence[Interval],
    owner: int,
    seq: int,
    *,
    check: bool = False,
) -> Interval:
    """Aggregate a solution set into a single interval per Eq. (5)–(6).

    Parameters
    ----------
    intervals:
        The solution set ``X`` (must be non-empty).  The caller — a
        detection core — guarantees ``overlap(X)``; pass ``check=True``
        to re-verify (used by tests and the offline tools).
    owner:
        The node generating the aggregation (root of the subtree where
        the solution was detected).
    seq:
        Per-owner sequence number; successive aggregations by the same
        node must use increasing values (Theorem 2 relies on this order).
    check:
        Re-verify ``overlap(X)`` before aggregating.

    By Eq. (5)-(6) ``⊓`` of a singleton has that interval's bounds, so a
    detector reports a one-interval solution as the interval itself
    (:class:`~repro.detect.HierarchicalNodeCore`) and calls this only
    for two or more heads — or to wrap a singleton under a new *seq*,
    when its own is not above the node's last report.  The result is
    then a one-part aggregate with the part's bounds.
    """
    if not intervals:
        raise ValueError("cannot aggregate an empty set of intervals")
    if check and not overlap(intervals):
        raise ValueError("aggregation requires overlap(X) to hold")
    if len(intervals) == 1:
        # A wrapped singleton keeps its part's bounds, which the part's
        # constructor already checked.
        only = intervals[0]
        return Interval._checked(
            owner, seq, only.lo, only.hi, only.members, (only,)
        )
    # Eq. (5)-(6) as a running elementwise max/min over the parts'
    # already-checked bounds.  At the fan-outs a tree has (|X| <= 5) this
    # beats stacking a (2|X|, n) block and reducing it, whose stack alone
    # costs more than the whole fold.
    first = intervals[0]
    lo, hi = first.lo, first.hi
    for x in intervals[1:]:
        if x.lo.shape != lo.shape:
            raise ValueError("cannot aggregate intervals of different widths")
        lo = np.maximum(lo, x.lo)
        hi = np.minimum(hi, x.hi)
    if not vc_le(lo, hi):
        # Theorem 2: the bounds are in order whenever overlap(X) held.
        raise ValueError(
            f"interval bounds out of order: lo={lo.tolist()} hi={hi.tolist()}"
        )
    lo.setflags(write=False)
    hi.setflags(write=False)
    return Interval._checked(
        owner,
        seq,
        lo,
        hi,
        frozenset().union(*(x.members for x in intervals)),
        tuple(intervals),
    )
