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

Pair tests
----------
The pair tests themselves are answered by a
:class:`~repro.clocks.compare.HeadMatrix`: it keeps the current heads'
bounds stacked and memoizes every pair result until a head changes, so
an activation costs one batched numpy refresh per changed head plus
cache lookups.  The core tells it about every head transition
(``set_head`` / ``clear_head``) and every queue it gains or loses
(``add_key`` / ``remove_key``) and reads ``partners`` / ``dominators``
back — those six calls are the whole interface.

``stats.comparisons`` counts *logical* pair tests (each ``≮`` the
algorithm consults, cached or not), which is the unit of the paper's
time analysis.  The listing's literal reading — one
:func:`~repro.clocks.vc_less` per test on the live heads — is kept as a
test oracle, :class:`~repro.detect.offline.ScalarReferenceCore`, which
must produce byte-identical solutions, prune-event streams and
``comparisons`` counts.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List

from ..clocks.compare import HeadMatrix
from ..intervals import Interval, IntervalQueue
from .base import CoreStats, Solution

__all__ = ["RepeatedDetectionCore"]


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
        ignores all later input: the one-shot Garg–Waldecker detector
        [7] (Garg & Waldecker, "Detection of strong unstable predicates
        in distributed programs", IEEE TPDS 7(12), 1996).  Section I of
        the paper observes that such algorithms "can detect predicates
        only once and will hang after the initial detection"; rerunning
        them naively is unsafe, and Figure 2 shows why hierarchical
        detection is impossible on top of them.  ``halted`` reports the
        stop.
    observer:
        Optional ``observer(event, key, interval)`` lifecycle callback
        with events ``"enqueue"``, ``"prune_incompat"`` and
        ``"prune_solution"`` — the hook the telemetry layer
        (:mod:`repro.obs`) uses to mark spans without making the core
        impure (no I/O, no clock: the observer supplies its own).
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
        on_pair_tests=None,
    ) -> None:
        self.queues: Dict[Hashable, IntervalQueue] = {
            key: IntervalQueue() for key in keys
        }
        if not self.queues:
            raise ValueError("a detection core needs at least one queue")
        self.detector_id = detector_id
        self.repeated = repeated
        self.observer = observer
        self.on_pair_tests = on_pair_tests
        self._matrix = HeadMatrix(self.queues)
        self.stats = CoreStats()
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
        self._matrix.add_key(key)

    def remove_queue(self, key: Hashable) -> List[Solution]:
        """Drop a queue (child failed / detached).

        Removing a queue can *unblock* detection: the remaining heads
        may already form a solution that was only waiting on the dead
        child.  We therefore re-run detection over all non-empty queues.
        """
        del self.queues[key]
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
        than one: a single arrival can unblock a cascade).  The return
        value is the only place a solution appears: the core keeps its
        queues and counters, never its history, so repeated detection
        runs in memory bounded by Table I's queue space.
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
        self._matrix.set_head(key, interval.lo, interval.hi)
        return self._detect({key})

    def _dequeue(self, key: Hashable) -> Interval:
        """Pop *key*'s head, keeping the comparison cache in sync with
        the exposed successor (or the queue's emptiness)."""
        queue = self.queues[key]
        pruned = queue.dequeue()
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
                    others, x_lt, y_lt = matrix.partners(a)
                    self.stats.comparisons += 2 * len(others)
                    for b, x_lt_b, b_lt_x in zip(others, x_lt, y_lt):
                        if not x_lt_b:
                            new_updated.add(b)
                        if not b_lt_x:
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
                index=self.stats.detections,
                heads=heads,
            )
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

        Accounting follows the listing's short-circuit: tests after the
        first dominating ``b`` are never needed, so they are not
        counted.
        """
        matrix = self._matrix
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
