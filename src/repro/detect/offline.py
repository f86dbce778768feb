"""Offline ground truth for ``Definitely(Φ)``.

Four oracles used by the test-suite to validate the online detectors:

1. :func:`enumerate_solution_sets` / :func:`holds_definitely` — brute
   force over all combinations of one interval per process, testing the
   overlap condition (Eq. 2) directly.  Exponential; fine for the small
   executions tests use.
2. :func:`lattice_definitely` — the Cooper–Marzullo-style global-state
   lattice walk: ``Definitely(Φ)`` holds iff *every* observation (path
   through the lattice of consistent cuts) passes through a global
   state satisfying ``Φ``; equivalently, iff the final state cannot be
   reached from the initial one while avoiding ``Φ``-states.  This
   oracle knows nothing about intervals or overlap, making it a truly
   independent check of the Garg–Waldecker characterization.

   *Semantics note.*  The interval conditions (Eq. 1–2) are stated on
   event timestamps, while the lattice evaluates Φ on the states
   *between* events.  At interval boundaries the two conventions can
   differ by one event: when ``min(y)[i] == max(x)[i]`` (the first
   event of ``y`` knows exactly the last true event of ``x``), the
   event-based ``Possibly`` condition rejects the pair although a
   consistent cut through both intervals exists.  The event-based
   conditions are therefore *sound* but very slightly conservative
   w.r.t. state semantics — the convention this whole literature
   implements.  Empirically ``Definitely`` agrees exactly on random
   executions; tests assert the sound direction unconditionally.
3. :func:`replay_centralized` — the centralized repeated-detection
   algorithm [12] replayed over a recorded trace with deterministic
   delivery order; its solution sequence is the reference the
   hierarchical algorithm's root detections are compared against.
4. :class:`ScalarReferenceCore` — Algorithm 1 with every pair test
   answered by a per-pair :func:`~repro.clocks.vc_less` on the live
   queue heads, as the listing reads; the referee for the production
   core's memoized :class:`~repro.clocks.compare.HeadMatrix`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Tuple

from ..clocks import vc_less
from ..intervals import Interval, overlap
from ..sim.trace import ExecutionTrace
from .base import Solution
from .centralized import CentralizedSinkCore
from .core import RepeatedDetectionCore

__all__ = [
    "ScalarReferenceCore",
    "enumerate_solution_sets",
    "holds_definitely",
    "lattice_definitely",
    "replay_centralized",
]


def enumerate_solution_sets(
    intervals_by_process: Dict[int, List[Interval]]
) -> Iterator[Tuple[Interval, ...]]:
    """Yield every combination (one interval per process) satisfying the
    overlap condition — every possible ``Definitely(Φ)`` witness."""
    processes = sorted(intervals_by_process)
    pools = [intervals_by_process[p] for p in processes]
    if any(not pool for pool in pools):
        return
    for combo in product(*pools):
        if overlap(combo):
            yield combo


def holds_definitely(intervals_by_process: Dict[int, List[Interval]]) -> bool:
    """Does at least one occurrence of ``Definitely(Φ)`` exist?"""
    return next(enumerate_solution_sets(intervals_by_process), None) is not None


# ----------------------------------------------------------------------
# lattice oracle
# ----------------------------------------------------------------------
def _stamps(trace: ExecutionTrace) -> List[List[List[int]]]:
    """Every event's timestamp as a list, per process (built once per
    walk: the walk reads each of them many times)."""
    return [[event.timestamp.tolist() for event in lane] for lane in trace.events]


def _next_states(
    cut: Tuple[int, ...], stamps: List[List[List[int]]]
) -> Iterator[Tuple[int, ...]]:
    """Consistent cuts reachable by executing one more event."""
    n = len(stamps)
    for i in range(n):
        k = cut[i]
        if k >= len(stamps[i]):
            continue
        ts = stamps[i][k]
        # The next event of P_i is enabled iff all events it causally
        # depends on are inside the cut.
        ok = True
        for j in range(n):
            if j != i and ts[j] > cut[j]:
                ok = False
                break
        if ok:
            yield cut[:i] + (k + 1,) + cut[i + 1 :]


def _phi(cut: Tuple[int, ...], trace: ExecutionTrace) -> bool:
    """The conjunctive predicate in the global state after *cut*."""
    return all(trace.predicate_after(i, cut[i]) for i in range(trace.n))


def lattice_definitely(trace: ExecutionTrace) -> bool:
    """``Definitely(Φ)`` by exhaustive lattice search (tiny runs only).

    Walks the lattice of consistent cuts, staying on non-``Φ`` states;
    ``Definitely`` holds iff the final cut is unreachable this way.
    """
    initial = tuple(0 for _ in range(trace.n))
    final = tuple(len(lane) for lane in trace.events)
    if _phi(initial, trace):
        return True
    stamps = _stamps(trace)
    seen = {initial}
    stack = [initial]
    while stack:
        cut = stack.pop()
        if cut == final:
            return False
        for nxt in _next_states(cut, stamps):
            if nxt in seen or _phi(nxt, trace):
                continue
            seen.add(nxt)
            stack.append(nxt)
    return True


# ----------------------------------------------------------------------
# reference replay
# ----------------------------------------------------------------------
def replay_hierarchical(trace: ExecutionTrace, tree) -> Dict[int, List]:
    """Run the hierarchical detector offline over a recorded trace.

    Every node's :class:`~repro.detect.hierarchical.HierarchicalNodeCore`
    is driven directly: local intervals are delivered in completion
    order, and every emitted report is handed to the parent immediately
    (the idealized instantaneous-channel schedule, matching
    :func:`replay_centralized`).  Returns node id → its emissions, so
    callers can inspect detections at *every* level of the hierarchy,
    not just the root.
    """
    from .hierarchical import HierarchicalNodeCore

    cores = {
        pid: HierarchicalNodeCore(
            pid, tree.children(pid), is_root=tree.parent_of(pid) is None
        )
        for pid in tree.nodes
    }
    emissions: Dict[int, List] = {pid: [] for pid in tree.nodes}

    def propagate(pid: int, emitted) -> None:
        emissions[pid].extend(emitted)
        parent = tree.parent_of(pid)
        if parent is None:
            return
        for emission in emitted:
            propagate(
                parent, cores[parent].offer_child(pid, emission.aggregate)
            )

    for interval in trace.intervals_in_completion_order():
        if interval.owner not in cores:
            continue  # process not in this (possibly post-failure) tree
        propagate(interval.owner, cores[interval.owner].offer_local(interval))
    return emissions


def replay_centralized(trace: ExecutionTrace, sink: int = 0) -> List[Solution]:
    """Run the centralized repeated-detection algorithm [12] over a
    recorded trace, delivering intervals in completion order (the
    idealized instantaneous-channel schedule).  Returns its solutions —
    the reference occurrence sequence for the execution."""
    core = CentralizedSinkCore(sink_id=sink, process_ids=range(trace.n))
    out: List[Solution] = []
    for interval in trace.intervals_in_completion_order():
        out.extend(core.offer(interval.owner, interval))
    return out


# ----------------------------------------------------------------------
# per-pair reference for the detection core
# ----------------------------------------------------------------------
class ScalarHeads:
    """Answers the core's pair queries with one ``vc_less`` per test on
    the *live* queue heads.

    It stands where the core keeps its
    :class:`~repro.clocks.compare.HeadMatrix` and takes the same six
    calls, but remembers nothing: head transitions and queue changes are
    ignored and every answer is computed from the queues as they are at
    the moment of the question.  It therefore cannot go stale, which is
    what the matrix's invalidation contract is checked against.

    ``tests`` counts the ``vc_less`` calls actually made — the number
    ``stats.comparisons`` claims to be.
    """

    def __init__(self, queues) -> None:
        self._queues = queues  # the core's own dict: always current
        self.tests = 0

    def _ignore(self, *args) -> None:
        pass

    set_head = clear_head = add_key = remove_key = _ignore

    def _less(self, u, v) -> bool:
        self.tests += 1
        return vc_less(u, v)

    def _other_heads(self, key):
        return [(b, q.head) for b, q in self._queues.items() if b != key and q]

    def partners(self, key):
        """Lines 12/14 for *key* against every other head, in queue order."""
        x = self._queues[key].head
        others = self._other_heads(key)
        return (
            [b for b, _ in others],
            [self._less(x.lo, y.hi) for _, y in others],
            [self._less(y.lo, x.hi) for _, y in others],
        )

    def dominators(self, key):
        """Eq. (10) for *key*; the flags are computed as they are read,
        so a caller that stops at the first dominator makes no further
        test."""
        hi = self._queues[key].head.hi
        others = self._other_heads(key)
        return [b for b, _ in others], (self._less(y.hi, hi) for _, y in others)


class ScalarReferenceCore(RepeatedDetectionCore):
    """:class:`~repro.detect.core.RepeatedDetectionCore` reading the
    listing literally: same queues, same control flow, same accounting,
    every ``≮`` a fresh per-pair test (:class:`ScalarHeads`).  Must
    produce byte-identical solutions, prune events and
    ``stats.comparisons``; constructed by tests only."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._matrix = ScalarHeads(self.queues)
