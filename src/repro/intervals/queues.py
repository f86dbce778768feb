"""Per-source interval queues used by every detection core.

Each detector (hierarchical node, centralized sink, one-shot baseline)
maintains one FIFO queue per interval source — ``Q_0 … Q_l`` in
Algorithm 1.  Queue discipline matters: the safety of the head-deletion
rules relies on intervals from the same source being processed in
``succ`` order, so :meth:`IntervalQueue.enqueue` enforces strictly
increasing sequence numbers.

Because the paper does *not* assume FIFO channels (Section II-A),
reports can arrive out of order; the :class:`ReorderBuffer` restores
per-source order before intervals reach a queue.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional

from .interval import Interval

__all__ = ["IntervalQueue", "ReorderBuffer"]


class IntervalQueue:
    """A FIFO of intervals from one source, with peak-size accounting."""

    __slots__ = ("_items", "peak_size", "total_enqueued", "_last_seq")

    def __init__(self) -> None:
        self._items: deque[Interval] = deque()
        self.peak_size = 0
        self.total_enqueued = 0
        self._last_seq: Optional[int] = None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._items)

    @property
    def head(self) -> Interval:
        return self._items[0]

    def enqueue(self, interval: Interval) -> None:
        if self._last_seq is not None and interval.seq <= self._last_seq:
            raise ValueError(
                f"out-of-order enqueue: seq {interval.seq} after "
                f"{self._last_seq} (reports must be reordered upstream)"
            )
        self._last_seq = interval.seq
        self._items.append(interval)
        self.total_enqueued += 1
        if len(self._items) > self.peak_size:
            self.peak_size = len(self._items)

    def dequeue(self) -> Interval:
        return self._items.popleft()


class ReorderBuffer:
    """Restores per-source transport order over non-FIFO channels.

    Senders stamp consecutive transport sequence numbers ``0, 1, 2, …``
    on their reports (restarting from 0 on each new attachment, so the
    receiver creates a fresh buffer per attachment epoch).
    ``push(seq, item)`` returns the (possibly empty) run of items that
    became deliverable, in transport order.
    """

    __slots__ = ("_pending", "_next_seq")

    def __init__(self, start_seq: int = 0) -> None:
        self._pending: Dict[int, object] = {}
        self._next_seq = start_seq

    def push(self, seq: int, item) -> list:
        if seq < self._next_seq:
            raise ValueError(
                f"stale transport seq {seq}: already delivered "
                f"(next expected is {self._next_seq})"
            )
        if seq in self._pending:
            raise ValueError(f"duplicate transport seq {seq}: already buffered")
        self._pending[seq] = item
        out: list = []
        while self._next_seq in self._pending:
            out.append(self._pending.pop(self._next_seq))
            self._next_seq += 1
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending)
