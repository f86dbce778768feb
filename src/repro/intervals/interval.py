"""Intervals — the unit of predicate detection.

An *interval* at process ``P_i`` is a maximal duration in which the
local predicate is true (Section II-B).  It is identified by the vector
timestamps of its first and last events, ``min(x)`` and ``max(x)``.

An *aggregated* interval (Section III-C) represents a whole solution
set; its bounds are cuts rather than events.  Aggregated intervals keep
*provenance* — the intervals they aggregate — so that a solution
reported at any level of the hierarchy can be unfolded back into the
concrete per-process intervals it covers, which the test-suite uses to
verify Eq. (2) end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

from ..clocks import Timestamp, freeze, vc_le

__all__ = ["Interval", "MEMBERS_INTERN_CAP"]

#: Most distinct member sets the intern table keeps.  A tree of
#: ``n`` nodes yields one member set per subtree (plus a few per
#: repair), far below this; the cap only stops a peer that sends frames
#: with arbitrary member lists from growing the table without bound.
MEMBERS_INTERN_CAP = 1024

_MEMBERS: dict = {}


def _intern(members: frozenset) -> frozenset:
    """The one shared frozenset equal to *members*.

    Every interval holds its member set, and a tcp7 epoch builds ~34
    intervals whose sets are one of a handful of subtrees, so each
    distinct set is kept once.  Past :data:`MEMBERS_INTERN_CAP` distinct
    sets a new one is used as built."""
    shared = _MEMBERS.get(members)
    if shared is not None:
        return shared
    if len(_MEMBERS) < MEMBERS_INTERN_CAP:
        _MEMBERS[members] = members
    return members


@dataclass(frozen=True)
class Interval:
    """A concrete or aggregated interval.

    Attributes
    ----------
    owner:
        The process the interval occurred at (concrete), or the node
        that generated the aggregation (aggregated).
    seq:
        Per-owner sequence number; ``succ`` relationships follow owner
        order, so ``seq`` strictly increases along a process's intervals
        (Theorem 2 for aggregated intervals).
    lo:
        Vector timestamp of ``min(x)`` (an event or a cut).
    hi:
        Vector timestamp of ``max(x)`` (an event or a cut).
    members:
        Processes whose local predicate the interval witnesses: a
        singleton for concrete intervals, the union of children
        subtrees' members for aggregated ones.
    parts:
        The intervals aggregated into this one (empty for concrete).
    """

    owner: int
    seq: int
    lo: Timestamp
    hi: Timestamp
    members: frozenset = field(default_factory=frozenset)
    parts: Tuple["Interval", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", freeze(self.lo))
        object.__setattr__(self, "hi", freeze(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have the same number of components")
        if not vc_le(self.lo, self.hi):
            # For concrete intervals min(x) precedes max(x) by local order;
            # for aggregated ones Theorem 2 proves lo <= hi whenever the
            # aggregated set satisfied overlap.  Violations indicate a bug
            # upstream, so fail loudly.
            raise ValueError(
                f"interval bounds out of order: lo={self.lo.tolist()} "
                f"hi={self.hi.tolist()}"
            )
        members = self.members or (self.owner,)
        object.__setattr__(self, "members", _intern(frozenset(members)))
        object.__setattr__(self, "_key_cache", None)

    @property
    def n(self) -> int:
        """Number of vector components (system size)."""
        return self.lo.shape[0]

    @property
    def is_aggregated(self) -> bool:
        return bool(self.parts)

    def concrete_leaves(self) -> Iterator["Interval"]:
        """Yield the concrete intervals this interval transitively covers
        (itself, if concrete)."""
        if not self.parts:
            yield self
            return
        for part in self.parts:
            yield from part.concrete_leaves()

    def key(self) -> tuple:
        """A hashable identity usable across detector replays.

        Computed lazily and cached: ``key()`` backs ``__hash__``, so it
        is called once per set/dict operation on the detection hot path,
        and ``tobytes()`` copies both timestamps each time.  The bounds
        are immutable (frozen in ``__post_init__``), so the cache can
        never go stale.
        """
        cached = self._key_cache
        if cached is None:
            cached = (self.owner, self.seq, self.lo.tobytes(), self.hi.tobytes())
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.seq == other.seq
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Agg" if self.is_aggregated else "Ivl"
        return (
            f"{kind}(P{self.owner}#{self.seq}, lo={self.lo.tolist()}, "
            f"hi={self.hi.tolist()})"
        )
