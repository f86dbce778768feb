"""The centralized repeated-detection baseline — reference [12].

Kshemkalyani, "Repeated detection of conjunctive predicates in
distributed executions", Information Processing Letters 111(9), 2011.
This is the only prior algorithm capable of repeated ``Definitely(Φ)``
detection, and the comparator throughout the paper's Section IV:

* every process sends *every* local interval to a single sink,
* the sink keeps ``n`` queues and runs the same detection/pruning
  machinery as Algorithm 1 (the paper's listing is "adapted from [12]"),
* all ``O(pn²)`` space and ``O(pn³)`` time land on the sink, and a sink
  failure kills the entire monitoring task.

When the network is multi-hop (a spanning tree of height ``h``), each
report costs as many point-to-point messages as its hop distance to the
sink — this is what Eq. (12)–(14) count and Figures 4–5 plot.
"""

from __future__ import annotations

from typing import Iterable, List

from ..intervals import Interval
from .base import CoreStats, Solution
from .core import RepeatedDetectionCore

__all__ = ["CentralizedSinkCore"]


class CentralizedSinkCore:
    """The sink of the centralized repeated-detection algorithm [12].

    Parameters
    ----------
    sink_id:
        Process id of the sink (stamped on solutions).
    process_ids:
        All monitored processes, including the sink itself — one queue
        each.
    repeated:
        ``False`` runs the one-shot sink [7]: it halts after its first
        detection (see :attr:`halted`).
    """

    def __init__(
        self, sink_id: int, process_ids: Iterable[int], *, repeated: bool = True
    ) -> None:
        self.sink_id = sink_id
        ids = list(process_ids)
        if sink_id not in ids:
            raise ValueError("sink must be one of the monitored processes")
        self._core = RepeatedDetectionCore(ids, detector_id=sink_id, repeated=repeated)

    @property
    def stats(self) -> CoreStats:
        return self._core.stats

    @property
    def halted(self) -> bool:
        """True once a one-shot sink has made its detection."""
        return self._core.halted

    def queue_sizes(self):
        return self._core.queue_sizes()

    def space_in_use(self) -> int:
        return self._core.space_in_use()

    def peak_queue_space(self) -> int:
        return self._core.peak_queue_space()

    def add_observer(self, fn) -> None:
        """Chain a queue-lifecycle observer onto the underlying core
        (see :meth:`RepeatedDetectionCore.add_observer`) — every sink
        queue is concrete, so an epoch ledger can fold enqueue/prune
        events straight off it."""
        self._core.add_observer(fn)

    def offer(self, process_id: int, interval: Interval) -> List[Solution]:
        """Deliver one interval reported by *process_id* (in sequence
        order) and return any solutions it unlocks."""
        return self._core.offer(process_id, interval)

    def remove_process(self, process_id: int) -> List[Solution]:
        """Drop a failed process's queue.

        Note the asymmetry the paper exploits: the *sink* failing is
        fatal for this algorithm, but a leaf failing merely narrows the
        predicate — provided the sink learns about it.
        """
        return self._core.remove_queue(process_id)
