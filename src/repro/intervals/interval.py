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

from dataclasses import FrozenInstanceError
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


_new = object.__new__
_set = object.__setattr__


def _fill(self, owner, seq, lo, hi, members, parts) -> None:
    _set(self, "owner", owner)
    _set(self, "seq", seq)
    _set(self, "lo", lo)
    _set(self, "hi", hi)
    _set(self, "members", _intern(frozenset(members or (owner,))))
    _set(self, "parts", parts)
    _set(self, "_key_cache", None)


class Interval:
    """A concrete or aggregated interval.

    Immutable: assigning an attribute raises
    :class:`~dataclasses.FrozenInstanceError`, and the bounds are
    read-only arrays.

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

    __slots__ = ("owner", "seq", "lo", "hi", "members", "parts", "_key_cache")

    owner: int
    seq: int
    lo: Timestamp
    hi: Timestamp
    members: frozenset
    parts: Tuple["Interval", ...]

    def __init__(
        self,
        owner: int,
        seq: int,
        lo: Timestamp,
        hi: Timestamp,
        members: frozenset = frozenset(),
        parts: Tuple["Interval", ...] = (),
    ) -> None:
        lo = freeze(lo)
        hi = freeze(hi)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same number of components")
        if not vc_le(lo, hi):
            # For concrete intervals min(x) precedes max(x) by local order;
            # for aggregated ones Theorem 2 proves lo <= hi whenever the
            # aggregated set satisfied overlap.  Violations indicate a bug
            # upstream, so fail loudly.
            raise ValueError(
                f"interval bounds out of order: lo={lo.tolist()} hi={hi.tolist()}"
            )
        _fill(self, owner, seq, lo, hi, members, parts)

    @classmethod
    def _checked(
        cls,
        owner: int,
        seq: int,
        lo: Timestamp,
        hi: Timestamp,
        members: frozenset,
        parts: Tuple["Interval", ...],
    ) -> "Interval":
        """Build from bounds its caller has already checked in bulk.

        *lo* and *hi* must be read-only ``int64`` rows of one shape with
        ``lo <= hi`` — e.g. views of a decoded frame's bounds block after
        one block-wide check, or the reductions of ``⊓``.  The public
        constructor passes every bound through
        :func:`~repro.clocks.freeze`, which copies views, so this is the
        only way a view becomes an interval's bound."""
        self = _new(cls)
        _fill(self, owner, seq, lo, hi, members, parts)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Through the public constructor: a slotted class whose
        # __setattr__ raises cannot be rebuilt from its state.
        return Interval, (self.owner, self.seq, self.lo, self.hi, self.members, self.parts)

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
        are read-only and the interval immutable, so the cache can never
        go stale.
        """
        cached = self._key_cache
        if cached is None:
            cached = (self.owner, self.seq, self.lo.tobytes(), self.hi.tobytes())
            _set(self, "_key_cache", cached)
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
