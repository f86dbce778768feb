"""The repeated-detection queue machine (Algorithm 1, lines 1–33).

This is the shared engine behind every detector in the library:

* the **hierarchical** node (paper's contribution) runs it over one
  queue per child plus one for local intervals;
* the **centralized repeated-detection** baseline [12] runs it at the
  sink over one queue per process in the system;
* the **one-shot Garg–Waldecker** baseline runs only the
  incompatibility-pruning half and stops at the first solution.

Control flow
------------
The paper's listing is ambiguous about whether the solution check
(line 18) sits inside the ``while`` of line 4.  The reading implemented
here — the only one that is both safe and complete — is:

1. run the pairwise incompatibility pruning (lines 4–17) to a fixed
   point, so that every surviving head has been checked against every
   other head;
2. if *all* queues are then non-empty, the heads form a solution
   (report it), prune per Eq. (10) (lines 23–33), and go back to 1 with
   the pruned queues marked updated — this is what makes detection
   *repeated* within a single activation.

Deletion rules
--------------
* lines 12–15: if ``min(x) ≮ max(y)`` then ``y`` can never belong to a
  solution containing ``x`` *or any successor of* ``x`` (successors'
  ``min`` dominates ``min(x)`` component-wise), so ``y`` is useless and
  is deleted; symmetrically for ``x``.
* Eq. (10): after a solution, delete every head ``x_a`` with
  ``∀ b≠a: max(x_b) ≮ max(x_a)`` — safe (Theorem 3) and guaranteed to
  delete at least one head (Theorem 4), ensuring progress.

We implement the exact ``≮`` test rather than the paper's line 26–29
short-circuit, which misses the (vector-equality) boundary case; see
DESIGN.md.  Both agree on all executions where ``max`` timestamps are
distinct, which property tests confirm.

Engines
-------
The pair tests themselves run on one of two interchangeable engines:

* ``"matrix"`` (default) — a :class:`~repro.clocks.compare.HeadMatrix`
  keeps the current heads' bounds stacked and memoizes every pair
  result until a head changes, so an activation costs one batched
  numpy refresh per changed head plus cache lookups;
* ``"scalar"`` — the original per-pair :func:`~repro.clocks.vc_less`
  calls, kept as the reference implementation the benchmarks and the
  determinism suite compare against.

Both engines produce byte-identical solutions, prune-event streams and
``stats.comparisons`` counts: ``comparisons`` counts *logical* pair
tests (each ``≮`` the algorithm consults, cached or not), which is the
unit of the paper's time analysis.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

from ..clocks import vc_less
from ..clocks.compare import HeadMatrix
from ..intervals import Interval, IntervalQueue
from .base import CoreStats, Solution

__all__ = [
    "RepeatedDetectionCore",
    "get_default_engine",
    "set_default_engine",
]

_ENGINES = ("matrix", "scalar")
_default_engine = "matrix"


def get_default_engine() -> str:
    """The engine cores use when constructed without an explicit one."""
    return _default_engine


def set_default_engine(name: str) -> None:
    """Select the process-wide default comparison engine.

    The benchmarks flip this to time the scalar reference path against
    the vectorized one over identical workloads.
    """
    global _default_engine
    if name not in _ENGINES:
        raise ValueError(f"unknown engine {name!r}, expected one of {_ENGINES}")
    _default_engine = name


class RepeatedDetectionCore:
    """Queues + the repeated ``Definitely(Φ)`` detection procedure.

    Parameters
    ----------
    keys:
        Initial queue keys (e.g. ``0`` for local intervals and one key
        per child).  Queues may be added/removed later — the fault
        layer does so when the spanning tree is repaired.
    detector_id:
        Node id stamped on emitted :class:`Solution` records.
    repeated:
        When ``False``, the core stops after its first solution and
        ignores all later input — modelling the one-shot baselines the
        paper contrasts against (Section I: they "hang after the
        initial detection").
    observer:
        Optional ``observer(event, key, interval)`` lifecycle callback
        with events ``"enqueue"``, ``"prune_incompat"`` and
        ``"prune_solution"`` — the hook the telemetry layer
        (:mod:`repro.obs`) uses to mark spans without making the core
        impure (no I/O, no clock: the observer supplies its own).
    engine:
        ``"matrix"`` (memoized vectorized pair tests, the default) or
        ``"scalar"`` (per-pair ``vc_less``).  ``None`` picks the
        process default (:func:`get_default_engine`).
    on_pair_tests:
        Optional ``callback(count)`` invoked once per activation with
        the number of logical pair tests it performed — how the
        ``repro_core_pair_tests_total`` metric stays observable without
        a per-test callback on the hot path.
    """

    def __init__(
        self,
        keys: Iterable[Hashable],
        detector_id: int = 0,
        *,
        repeated: bool = True,
        observer=None,
        engine: Optional[str] = None,
        on_pair_tests=None,
    ) -> None:
        self.queues: Dict[Hashable, IntervalQueue] = {
            key: IntervalQueue() for key in keys
        }
        if not self.queues:
            raise ValueError("a detection core needs at least one queue")
        if engine is None:
            engine = _default_engine
        elif engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
        self.detector_id = detector_id
        self.repeated = repeated
        self.observer = observer
        self.engine = engine
        self.on_pair_tests = on_pair_tests
        self._matrix = HeadMatrix(self.queues) if engine == "matrix" else None
        self.stats = CoreStats()
        self.solutions: List[Solution] = []
        self._halted = False

    def add_observer(self, fn) -> None:
        """Chain an additional ``observer(event, key, interval)`` after
        any already installed one.

        Roles install their telemetry observer at construction; layers
        that attach later (the epoch ledger's queue hooks) chain here
        instead of replacing it.  Observers run in attach order and
        must obey the same contract: cheap and pure.
        """
        current = self.observer
        if current is None:
            self.observer = fn
            return

        def chained(event, key, interval, _first=current, _second=fn):
            _first(event, key, interval)
            _second(event, key, interval)

        self.observer = chained

    # ------------------------------------------------------------------
    # queue management (used by the fault layer on tree repair)
    # ------------------------------------------------------------------
    def add_queue(self, key: Hashable) -> None:
        if key in self.queues:
            raise KeyError(f"queue {key!r} already exists")
        self.queues[key] = IntervalQueue()
        if self._matrix is not None:
            self._matrix.add_key(key)

    def remove_queue(self, key: Hashable) -> List[Solution]:
        """Drop a queue (child failed / detached).

        Removing a queue can *unblock* detection: the remaining heads
        may already form a solution that was only waiting on the dead
        child.  We therefore re-run detection over all non-empty queues.
        """
        del self.queues[key]
        if self._matrix is not None:
            self._matrix.remove_key(key)
        if self._halted or not self.queues:
            return []
        updated = {k for k, q in self.queues.items() if q}
        return self._detect(updated) if updated else []

    @property
    def halted(self) -> bool:
        return self._halted

    # ------------------------------------------------------------------
    # the algorithm
    # ------------------------------------------------------------------
    def offer(self, key: Hashable, interval: Interval) -> List[Solution]:
        """Deliver one interval from source *key* (Algorithm 1, line 1).

        Returns the solutions detected as a consequence (possibly more
        than one: a single arrival can unblock a cascade).
        """
        if self._halted:
            return []
        queue = self.queues[key]
        queue.enqueue(interval)
        self.stats.offers += 1
        if self.observer is not None:
            self.observer("enqueue", key, interval)
        # Line 2: only a fresh head can change the outcome of detection.
        if len(queue) != 1:
            return []
        if self._matrix is not None:
            self._matrix.set_head(key, interval.lo, interval.hi)
        return self._detect({key})

    def offer_batch(self, items) -> List[Solution]:
        """Deliver many ``(key, interval)`` offers in one call.

        Byte-identical to looping :meth:`offer` over *items* — same
        solutions, same prune-event stream, same logical comparison
        counts, same halting behaviour — but ingestion is batched:
        consecutive offers that deepen an already non-empty queue never
        activate detection (Algorithm 1 line 2), so whole runs of them
        are bulk-enqueued through :meth:`IntervalQueue.extend
        <repro.intervals.IntervalQueue.extend>` with no per-offer
        Python dispatch and no :class:`~repro.clocks.compare.HeadMatrix`
        traffic.  Only offers that expose a fresh head go through the
        full detection path, so the matrix refreshes once per head
        transition rather than being consulted per offer.

        *items* must be an indexable sequence (a list of pairs); a
        generator should be materialized by the caller.
        """
        found: List[Solution] = []
        queues = self.queues
        observer = self.observer
        stats = self.stats
        i, count = 0, len(items)
        while i < count:
            if self._halted:
                # offer() drops input entirely once halted (one-shot
                # cores "hang after the initial detection").
                return found
            key, interval = items[i]
            queue = queues[key]
            if not queue:
                found.extend(self.offer(key, interval))
                i += 1
                continue
            # Run of consecutive same-key offers onto a non-empty queue:
            # none of them can change a head, so none can change the
            # outcome of detection (line 2) — ingest the run wholesale.
            j = i + 1
            while j < count and items[j][0] == key:
                j += 1
            run = [pair[1] for pair in items[i:j]]
            queue.extend(run)
            stats.offers += len(run)
            if observer is not None:
                for pending in run:
                    observer("enqueue", key, pending)
            i = j
        return found

    def _vc_less(self, u, v) -> bool:
        self.stats.comparisons += 1
        return vc_less(u, v)

    def _dequeue(self, key: Hashable) -> Interval:
        """Pop *key*'s head, keeping the comparison cache in sync with
        the exposed successor (or the queue's emptiness)."""
        queue = self.queues[key]
        pruned = queue.dequeue()
        if self._matrix is not None:
            if queue:
                head = queue.head
                self._matrix.set_head(key, head.lo, head.hi)
            else:
                self._matrix.clear_head(key)
        return pruned

    def _detect(self, updated: set) -> List[Solution]:
        start = self.stats.comparisons
        found = self._detect_inner(updated)
        delta = self.stats.comparisons - start
        if delta and self.on_pair_tests is not None:
            self.on_pair_tests(delta)
        return found

    def _detect_inner(self, updated: set) -> List[Solution]:
        found: List[Solution] = []
        queues = self.queues
        matrix = self._matrix
        while True:
            # --- lines 4–17: prune mutually incompatible heads to fixpoint
            while updated:
                new_updated: set = set()
                for a in updated:
                    queue_a = queues.get(a)
                    if not queue_a:
                        continue
                    if matrix is not None:
                        others, x_lt, y_lt = matrix.partners(a)
                        self.stats.comparisons += 2 * len(others)
                        for b, x_lt_b, b_lt_x in zip(others, x_lt, y_lt):
                            if not x_lt_b:
                                new_updated.add(b)
                            if not b_lt_x:
                                new_updated.add(a)
                        continue
                    x = queue_a.head
                    for b, queue_b in queues.items():
                        if b == a or not queue_b:
                            continue
                        y = queue_b.head
                        if not self._vc_less(x.lo, y.hi):
                            new_updated.add(b)
                        if not self._vc_less(y.lo, x.hi):
                            new_updated.add(a)
                for c in new_updated:
                    if queues[c]:
                        pruned = self._dequeue(c)
                        self.stats.pruned_incompatible += 1
                        if self.observer is not None:
                            self.observer("prune_incompat", c, pruned)
                updated = new_updated
            # --- line 18: solution iff every queue has a head
            if not all(queues.values()):
                return found
            heads = {key: q.head for key, q in queues.items()}
            solution = Solution(
                detector=self.detector_id,
                index=len(self.solutions),
                heads=heads,
            )
            self.solutions.append(solution)
            self.stats.detections += 1
            found.append(solution)
            if not self.repeated:
                self._halted = True
                return found
            # --- lines 23–33: Eq. (10) pruning for repeated detection
            removable = self._removable_heads(heads)
            assert removable, "Theorem 4 guarantees at least one removal"
            for key in removable:
                pruned = self._dequeue(key)
                self.stats.pruned_after_solution += 1
                if self.observer is not None:
                    self.observer("prune_solution", key, pruned)
            updated = removable

    def _removable_heads(self, heads: Dict[Hashable, Interval]) -> set:
        """Keys whose head satisfies Eq. (10):
        ``∀ b≠a: max(x_b) ≮ max(x_a)`` — i.e. heads whose ``max`` is
        minimal under the strict vector order among all heads.

        Both engines preserve the scalar path's short-circuit
        accounting: tests after the first dominating ``b`` were never
        performed, so they are not counted.
        """
        matrix = self._matrix
        if matrix is not None:
            removable = set()
            for a in heads:
                _, flags = matrix.dominators(a)
                tested = 0
                dominated = False
                for flag in flags:
                    tested += 1
                    if flag:
                        dominated = True
                        break
                self.stats.comparisons += tested
                if not dominated:
                    removable.add(a)
            return removable
        keys = list(heads)
        removable = set()
        for a in keys:
            hi_a = heads[a].hi
            if all(
                not self._vc_less(heads[b].hi, hi_a) for b in keys if b != a
            ):
                removable.add(a)
        return removable

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queue_sizes(self) -> Dict[Hashable, int]:
        return {key: len(q) for key, q in self.queues.items()}

    def space_in_use(self) -> int:
        """Current storage in *vector entries* (each interval stores two
        length-``n`` timestamps) — the unit of the paper's space
        analysis (Section IV-B)."""
        total = 0
        for queue in self.queues.values():
            for interval in queue:
                total += 2 * interval.n
        return total

    def peak_queue_space(self) -> int:
        """Peak total queued intervals observed (sum of per-queue peaks,
        an upper bound on the true simultaneous peak)."""
        return sum(q.peak_size for q in self.queues.values())
