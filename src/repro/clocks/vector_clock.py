"""Vector clocks and vector-timestamp comparisons.

Implements the Mattern/Fidge vector clocks used throughout the paper
(Section II-A), with the exact update rules:

1. before an internal event at ``P_i``:  ``V_i[i] += 1``
2. before ``P_i`` sends a message:       ``V_i[i] += 1``, then piggyback ``V_i``
3. when ``P_j`` receives a message with timestamp ``U``:
   ``V_j = max(V_j, U)`` component-wise, then ``V_j[j] += 1``,
   before delivering the message.

Timestamps are immutable numpy ``int64`` arrays.  All comparison
predicates are vectorized — the pairwise checks in the detection cores
are the hot path of the whole library, so none of them iterate over
components in Python.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Timestamp",
    "VectorClock",
    "freeze",
    "vc_le",
    "vc_less",
    "vc_not_less",
    "vc_concurrent",
    "vc_equal",
    "join",
    "meet",
]

#: A vector timestamp: an immutable 1-D ``int64`` array of length ``n``.
Timestamp = np.ndarray


def freeze(values) -> Timestamp:
    """Return an immutable ``int64`` copy of *values* usable as a timestamp.

    Already-frozen timestamps pass through unchanged: an immutable,
    base-less array can be shared safely, and every ``Interval``
    constructor funnels its bounds through here, so the pass-through
    turns re-wrapping (aggregation provenance, message decode, replay)
    into a no-op instead of an O(n) copy.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.int64
        and values.ndim == 1
        and not values.flags.writeable
        and values.base is None
    ):
        return values
    arr = np.array(values, dtype=np.int64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"a timestamp must be 1-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def vc_le(u: Timestamp, v: Timestamp) -> bool:
    """``u <= v``: every component of *u* is at most the one in *v*."""
    # Every Interval constructor and every ``⊓`` runs this.  Counting
    # the violations is one C call; ``ndarray.all`` goes through
    # numpy's Python-level ``_methods._all`` (measured 2.4x slower at
    # n = 7).
    return not np.count_nonzero(u > v)


def vc_less(u: Timestamp, v: Timestamp) -> bool:
    """Strict vector order ``u < v``.

    Per Section II-A: ``u < v`` iff every component of *u* is ``<=`` the
    corresponding component of *v* and at least one is strictly smaller.
    Between event timestamps this is exactly Lamport's happens-before.
    """
    return bool((u <= v).all() and (u < v).any())


def vc_not_less(u: Timestamp, v: Timestamp) -> bool:
    """The ``u ≮ v`` test used by Algorithm 1 (lines 12, 14) and Eq. (10)."""
    return not vc_less(u, v)


def vc_concurrent(u: Timestamp, v: Timestamp) -> bool:
    """Neither ``u < v`` nor ``v < u`` (and not equal): concurrent events."""
    return not vc_less(u, v) and not vc_less(v, u) and not vc_equal(u, v)


def vc_equal(u: Timestamp, v: Timestamp) -> bool:
    """Component-wise equality of two timestamps."""
    return u.shape == v.shape and bool((u == v).all())


def join(*timestamps: Timestamp) -> Timestamp:
    """Component-wise maximum of one or more timestamps (their least upper
    bound in the vector-clock lattice)."""
    if not timestamps:
        raise ValueError("join() of no timestamps")
    out = np.maximum.reduce(np.asarray(timestamps))
    out.setflags(write=False)
    return out


def meet(*timestamps: Timestamp) -> Timestamp:
    """Component-wise minimum of one or more timestamps (their greatest
    lower bound in the vector-clock lattice)."""
    if not timestamps:
        raise ValueError("meet() of no timestamps")
    out = np.minimum.reduce(np.asarray(timestamps))
    out.setflags(write=False)
    return out


class VectorClock:
    """The mutable per-process clock, following the paper's update rules.

    Parameters
    ----------
    n:
        Number of processes in the system (vector length).
    index:
        This process's own component, ``0 <= index < n``.
    """

    __slots__ = ("_v", "index")

    def __init__(self, n: int, index: int) -> None:
        if not 0 <= index < n:
            raise ValueError(f"index {index} out of range for n={n}")
        self._v = np.zeros(n, dtype=np.int64)
        self.index = index

    @property
    def n(self) -> int:
        """Number of components (processes)."""
        return self._v.shape[0]

    def peek(self) -> Timestamp:
        """Immutable snapshot of the current clock value (no tick)."""
        return freeze(self._v)

    def tick(self) -> Timestamp:
        """Advance the local component for an internal event; return the
        timestamp of that event."""
        self._v[self.index] += 1
        return freeze(self._v)

    def send(self) -> Timestamp:
        """Advance for a send event and return the timestamp to piggyback
        on the outgoing message (rule 2)."""
        return self.tick()

    def receive(self, piggyback: Timestamp) -> Timestamp:
        """Merge a received message's *piggyback* timestamp and advance for
        the receive event (rule 3); return the receive event's timestamp."""
        if piggyback.shape != self._v.shape:
            raise ValueError(
                f"piggyback has {piggyback.shape[0]} components, "
                f"clock has {self._v.shape[0]}"
            )
        np.maximum(self._v, piggyback, out=self._v)
        return self.tick()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock(P{self.index}, {self._v.tolist()})"
