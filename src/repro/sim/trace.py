"""Execution traces: the recorded ``(E, ≺)`` of a run.

A trace records, per process, the totally-ordered local sequence of
events together with their vector timestamps and the local predicate
value *after* each event.  From a trace we can

* extract the per-process intervals (maximal runs of events at which
  the local predicate is true) that drive the detectors, and
* hand the full event structure to the offline ground-truth checkers
  (:mod:`repro.detect.offline`).

Traces come from two producers: the discrete-event simulator
(:mod:`repro.sim.kernel` / :mod:`repro.sim.process`) and the scripted
scenario builder (:mod:`repro.workload.scenarios`) used to reproduce
the paper's figures exactly.

Storage is columnar and keeps only the timestamps the clock rules do
not imply.  By rules 1–2 of Section II-A an internal or send event
changes only its own component, so its timestamp is its predecessor's
with the own component +1.  :meth:`ExecutionTrace.record` keeps a
timestamp only when it differs from that (in practice: receive events,
and a first event that already knows a foreign component); every other
event's timestamp is rebuilt on demand from the nearest kept one before
it.  On an epoch workload that drops all but the receive rows.

A process's kept rows share one buffer at the narrowest width that
holds every component so far: unsigned 1, 2 or 4 bytes, widened in
place when a row needs more, and signed 8 bytes once any component is
negative or 2**32 or more.  Reads return read-only ``int64`` copies.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clocks import Timestamp, freeze
from ..intervals import Interval

__all__ = ["EventKind", "ProcessEvent", "ProcessEvents", "ExecutionTrace"]


class EventKind:
    INTERNAL = "internal"
    SEND = "send"
    RECV = "recv"


#: kind code (the index stored per event) → kind
_KINDS = (EventKind.INTERNAL, EventKind.SEND, EventKind.RECV)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class ProcessEvent:
    """One application-plane event.

    ``index`` is 1-based and equals the process's own vector-clock
    component at the event.  ``global_order`` is the order in which the
    producer recorded events — any producer records causes before
    effects, so it is a valid linearization of ``(E, ≺)``.  ``time`` is
    the producer's wall clock (simulation time for DES runs, the global
    order for scripted executions); the algorithms never read it — it
    exists for latency measurements and rendering only.
    """

    process: int
    index: int
    timestamp: Timestamp
    kind: str
    predicate: bool
    global_order: int
    time: float = 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessEvent):
            return NotImplemented
        return (
            self.process,
            self.index,
            self.kind,
            self.predicate,
            self.global_order,
            self.time,
        ) == (
            other.process,
            other.index,
            other.kind,
            other.predicate,
            other.global_order,
            other.time,
        ) and np.array_equal(self.timestamp, other.timestamp)


#: (row dtype, exclusive bound of its components read as uint64), narrowest
#: first; a negative component reads as 2**63 or more and lands on int64
_WIDTHS = (
    (np.dtype(np.uint8), 1 << 8),
    (np.dtype(np.uint16), 1 << 16),
    (np.dtype(np.uint32), 1 << 32),
    (np.dtype(np.int64), 1 << 64),
)


class ProcessEvents(Sequence):
    """One process's recorded events: a read-only sequence over columns.

    Per event it stores a kind code, the predicate, the global order and
    the time; timestamps only where :meth:`ExecutionTrace.record` kept
    one, as rows of ``_rows`` (at the event indices in ``_kept_at``).
    Indexing builds a :class:`ProcessEvent` on demand; its timestamp is
    a frozen ``int64`` copy of the nearest kept row at or before it (or
    of the zero vector), with the own component set.
    """

    __slots__ = (
        "_process",
        "_base",
        "_kinds",
        "_predicates",
        "_orders",
        "_times",
        "_rows",
        "_bound",
        "_kept_at",
    )

    def __init__(self, process: int, zero: Timestamp) -> None:
        self._process = process
        #: the latest kept timestamp (the zero vector before the first)
        self._base = zero
        self._kinds = bytearray()
        self._predicates = bytearray()
        self._orders = array("q")
        self._times = array("d")
        #: kept rows; capacity grows ahead of ``len(_kept_at)``
        dtype, self._bound = _WIDTHS[0]
        self._rows = np.empty((0, len(zero)), dtype)
        self._kept_at = array("q")

    def __len__(self) -> int:
        return len(self._kinds)

    def _keep(self, stamp: Timestamp, k: int) -> None:
        """Store frozen ``int64`` *stamp* as the timestamp of event *k*."""
        rows = self._rows
        count = len(self._kept_at)
        # the largest component read as unsigned: a negative one is 2**63+
        top = int(np.maximum.reduce(stamp, dtype=np.uint64))
        if top >= self._bound:
            dtype, self._bound = next(w for w in _WIDTHS if top < w[1])
            rows = self._rows = rows.astype(dtype)
        if count == len(rows):
            grown = np.empty((count + count // 4 + 4, rows.shape[1]), rows.dtype)
            grown[:count] = rows
            rows = self._rows = grown
        rows[count] = stamp
        self._kept_at.append(k)
        self._base = stamp

    def _timestamp(self, k: int) -> Timestamp:
        """Timestamp of the event at 0-based position *k* (``k >= 0``)."""
        row = bisect_right(self._kept_at, k) - 1
        if row < 0:
            stamp = np.zeros(self._rows.shape[1], dtype=np.int64)
        else:
            stamp = self._rows[row].astype(np.int64)
        if row < 0 or self._kept_at[row] != k:
            stamp[self._process] = k + 1
        stamp.setflags(write=False)
        return stamp

    def _event(self, k: int) -> ProcessEvent:
        return ProcessEvent(
            process=self._process,
            index=k + 1,
            timestamp=self._timestamp(k),
            kind=_KINDS[self._kinds[k]],
            predicate=bool(self._predicates[k]),
            global_order=self._orders[k],
            time=self._times[k],
        )

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._event(k) for k in range(*key.indices(len(self)))]
        k = key + len(self) if key < 0 else key
        if not 0 <= k < len(self):
            raise IndexError("event index out of range")
        return self._event(k)

    def __iter__(self):
        return map(self._event, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ProcessEvents, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<ProcessEvents P{self._process}: {len(self)} events, {len(self._kept_at)} kept timestamps>"


class ExecutionTrace:
    """The recorded events of one distributed execution.

    ``events[p]`` is process *p*'s :class:`ProcessEvents`, a read-only
    sequence of :class:`ProcessEvent`.
    """

    def __init__(self, n: int, initial_predicate: Optional[Sequence] = None):
        self.n = n
        zero = np.zeros(n, dtype=np.int64)
        zero.setflags(write=False)
        self.events: Tuple[ProcessEvents, ...] = tuple(
            ProcessEvents(p, zero) for p in range(n)
        )
        self.initial_predicate: List[bool] = (
            list(initial_predicate) if initial_predicate is not None else [False] * n
        )
        if len(self.initial_predicate) != n:
            raise ValueError("initial_predicate must have one entry per process")
        self._order = 0

    def record(
        self,
        process: int,
        timestamp: Timestamp,
        kind: str,
        predicate: bool,
        time: float = 0.0,
    ) -> None:
        """Append one event to *process*'s local sequence.

        The timestamp is kept (copied into the lane's row buffer) only
        when it is not the previous event's with the own component +1 —
        decided by comparing with the last kept row, whatever *kind*
        says.
        """
        lane = self.events[process]
        index = len(lane) + 1
        if len(timestamp) != self.n:
            raise ValueError(
                f"timestamp has {len(timestamp)} components, trace has {self.n}"
            )
        if int(timestamp[process]) != index:
            raise ValueError(
                f"timestamp component {int(timestamp[process])} does not match "
                f"local event index {index} at P{process}"
            )
        code = _KIND_CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown event kind {kind!r}")
        # The own component always differs from the base's; any other
        # difference means the clock rules do not imply this timestamp.
        if np.count_nonzero(timestamp != lane._base) != 1:
            lane._keep(freeze(timestamp), index - 1)
        lane._kinds.append(code)
        lane._predicates.append(1 if predicate else 0)
        lane._orders.append(self._order)
        lane._times.append(time)
        self._order += 1

    # ------------------------------------------------------------------
    def event_count(self) -> int:
        return sum(len(lane) for lane in self.events)

    def kept_timestamps(self) -> int:
        """How many timestamps the trace stores (the rest are implied)."""
        return sum(len(lane._kept_at) for lane in self.events)

    def kept_timestamp_bytes(self) -> int:
        """Bytes of the kept timestamps at their lanes' widths (not
        counting the buffers' spare capacity)."""
        return sum(len(lane._kept_at) * lane._rows.itemsize * self.n for lane in self.events)

    def predicate_after(self, process: int, k: int) -> bool:
        """Local predicate value after *process* executed ``k`` events."""
        if k == 0:
            return self.initial_predicate[process]
        return bool(self.events[process]._predicates[k - 1])

    def intervals(self, process: int) -> List[Interval]:
        """Maximal runs of predicate-true events at *process*, in order."""
        lane = self.events[process]
        predicates = lane._predicates
        out: List[Interval] = []
        start = predicates.find(1)
        while start >= 0:
            end = predicates.find(0, start)
            if end < 0:
                end = len(predicates)
            out.append(
                Interval(
                    owner=process,
                    seq=len(out),
                    lo=lane._timestamp(start),
                    hi=lane._timestamp(end - 1),
                )
            )
            start = predicates.find(1, end)
        return out

    def all_intervals(self) -> Dict[int, List[Interval]]:
        return {p: self.intervals(p) for p in range(self.n)}

    def interval_close_time(self, interval: Interval) -> float:
        """Wall time of the event at which *interval*'s predicate run
        ended (its ``max(x)`` event)."""
        owner = interval.owner
        return self.events[owner]._times[int(interval.hi[owner]) - 1]

    def intervals_in_completion_order(self) -> List[Interval]:
        """All processes' intervals ordered by the global order of their
        closing event — the natural delivery order for a centralized
        sink replay with instantaneous channels."""

        def close_order(interval: Interval) -> int:
            owner = interval.owner
            # hi component at owner is the 1-based index of the closing event
            return self.events[owner]._orders[int(interval.hi[owner]) - 1]

        flat = [iv for p in range(self.n) for iv in self.intervals(p)]
        flat.sort(key=close_order)
        return flat
