"""One-shot ``Definitely(Φ)`` detection — the Garg–Waldecker baseline [7].

Garg & Waldecker, "Detection of strong unstable predicates in
distributed programs", IEEE TPDS 7(12), 1996.  A centralized sink runs
the interval-based overlap test but performs *no* post-solution
pruning: as Section I of the paper observes, such algorithms "can
detect predicates only once and will hang after the initial
detection" — rerunning them naively is unsafe, and the paper's Figure 2
shows why hierarchical detection is impossible on top of them.

We reproduce that behaviour faithfully (``repeated=False`` halts the
core at the first solution) so tests and benches can demonstrate the
claims the paper's motivation rests on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..intervals import Interval
from .base import CoreStats, Solution
from .core import RepeatedDetectionCore

__all__ = ["OneShotDefinitelyCore"]


class OneShotDefinitelyCore:
    """Centralized, single-occurrence ``Definitely(Φ)`` detector."""

    def __init__(self, sink_id: int, process_ids: Iterable[int]) -> None:
        self.sink_id = sink_id
        self._core = RepeatedDetectionCore(
            list(process_ids), detector_id=sink_id, repeated=False
        )
        #: The single detected occurrence, once the core halts on it.
        self.detection: Optional[Solution] = None

    @property
    def stats(self) -> CoreStats:
        return self._core.stats

    @property
    def halted(self) -> bool:
        """True once the first occurrence was detected; all further
        intervals are ignored ("hangs after the initial detection")."""
        return self._core.halted

    def queue_sizes(self):
        return self._core.queue_sizes()

    def space_in_use(self) -> int:
        return self._core.space_in_use()

    def peak_queue_space(self) -> int:
        return self._core.peak_queue_space()

    def offer(self, process_id: int, interval: Interval) -> List[Solution]:
        found = self._core.offer(process_id, interval)
        if found:
            (self.detection,) = found
        return found
