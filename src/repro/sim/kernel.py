"""Discrete-event simulation kernel.

A minimal, deterministic DES: a binary heap of ``(time, tie, event)``
tuples — ``tie`` is a monotone counter, so the pair is a strict total
order and every sift comparison is a C-level tuple compare that never
reaches the event object.  Determinism is a first-class requirement
(DESIGN.md §4): all randomness flows through named
``numpy.random.Generator`` streams forked from a single seed, so a
``(seed, workload, topology)`` triple reproduces the exact same trace,
detections and metric counters on every run.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["Simulator", "ScheduledEvent"]

#: Seeds accepted by :class:`Simulator` — a plain int (legacy, keeps the
#: historical stream derivation byte-stable) or a
#: :class:`numpy.random.SeedSequence`, typically one spawned per shard
#: by :class:`~repro.experiments.parallel.ShardedRunner`.
SimSeed = Union[int, np.random.SeedSequence]


@dataclass(eq=False)
class ScheduledEvent:
    """Cancel-handle for one scheduled callback.  Ordering lives in the
    simulator's heap entries, not here."""

    time: float
    tie: int
    action: Callable[[], None]
    cancelled: bool = False
    #: owning simulator while the event sits in its heap; cleared on pop
    #: so late cancels of executed events don't skew the tombstone count
    _sim: Optional["Simulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()


class Simulator:
    """Event loop with named deterministic RNG streams.

    Parameters
    ----------
    seed:
        Master seed.  Stream identity depends only on a stream's name,
        never on creation order:

        * an **int** seed keeps the historical derivation
          ``SeedSequence([seed, crc32(name)])`` byte-stable — the compat
          path every pre-existing experiment (and the sharded runner's
          ``workers=1`` determinism contract) relies on;
        * a :class:`numpy.random.SeedSequence` (e.g. a child spawned via
          ``SeedSequence.spawn`` for one shard of a parallel sweep)
          derives each stream by *extending the spawn key* with the
          name's raw UTF-8 bytes.  No hashing is involved, so two
          distinct shard seeds can never collide on a stream the way two
          ints colliding with a crc32 could — the spawn-key tree keys
          streams apart by construction.
    """

    def __init__(self, seed: SimSeed = 0) -> None:
        from ..obs.telemetry import Telemetry
        from .eventlog import EventLog

        self.now: float = 0.0
        self.seed = seed
        self._seedseq: Optional[np.random.SeedSequence] = (
            seed if isinstance(seed, np.random.SeedSequence) else None
        )
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._tie = 0
        self._cancelled_in_heap = 0
        self.heap_compactions = 0
        self._rngs: Dict[str, np.random.Generator] = {}
        self.events_executed = 0
        #: structured observability log (see repro.sim.eventlog)
        self.log = EventLog()
        #: metrics registry + causal span tracker (see repro.obs)
        self.telemetry = Telemetry()

    def emit(self, kind: str, node=None, **fields) -> None:
        """Record a structured observability event at the current time."""
        self.log.emit(self.now, kind, node, **fields)

    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """The named RNG stream (created on first use)."""
        gen = self._rngs.get(name)
        if gen is None:
            if self._seedseq is not None:
                # Collision-free: the stream is a SeedSequence child
                # keyed by the name's raw bytes under this simulator's
                # own spawn key — no hash, so distinct (shard, name)
                # pairs are distinct by construction.
                sequence = np.random.SeedSequence(
                    entropy=self._seedseq.entropy,
                    spawn_key=tuple(self._seedseq.spawn_key)
                    + tuple(name.encode("utf-8")),
                )
            else:
                # Legacy int-seed shim: byte-stable with every recorded
                # baseline (regression-tested in tests/sim/test_kernel).
                key = zlib.crc32(name.encode("utf-8"))
                sequence = np.random.SeedSequence([self.seed, key])
            gen = np.random.default_rng(sequence)
            self._rngs[name] = gen
        return gen

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Run *action* ``delay`` time units from now (``delay >= 0``)."""
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> ScheduledEvent:
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        tie = self._tie
        self._tie = tie + 1
        event = ScheduledEvent(time, tie, action, False, self)
        heapq.heappush(self._heap, (time, tie, event))
        return event

    # ------------------------------------------------------------------
    # lazy tombstone compaction
    #
    # Cancelled events stay in the heap as tombstones until popped; with
    # heavy timer churn (heartbeat resets every message) they can come to
    # dominate the heap and inflate every push/pop by O(log dead).  When
    # the dead fraction exceeds half (past a small absolute floor, so
    # tiny sims never bother) the heap is rebuilt with the live events
    # only.  ``heapify`` keeps determinism: pop order is the strict
    # (time, tie) total order regardless of internal layout.
    _COMPACT_MIN_CANCELLED = 64

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > self._COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event; False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            event._sim = None
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = event.time
            event.action()
            self.events_executed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event heap, optionally bounded by time or count."""
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                return
            head = self._heap[0][2]
            if head.cancelled:
                heapq.heappop(self._heap)
                head._sim = None
                self._cancelled_in_heap -= 1
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            if not self.step():
                return
            executed += 1
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events awaiting execution — O(1) now
        that tombstones are counted instead of scanned."""
        return len(self._heap) - self._cancelled_in_heap
