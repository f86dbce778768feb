"""The hierarchical detector — the paper's core contribution (Section III).

Every node ``P_i`` of the spanning tree runs a
:class:`HierarchicalNodeCore`: a :class:`~repro.detect.core.RepeatedDetectionCore`
over one queue for its own local intervals plus one queue per child.
The node thereby detects ``Definitely(Φ)`` restricted to the subtree
rooted at itself.  On each solution it

* if it has a parent: reports ``⊓`` of the solution set one hop up
  (Algorithm 1, lines 19–20).  By Eq. 5–6 ``⊓`` of a one-interval
  solution is that interval, so a leaf (or a node whose children are
  all gone) forwards its local interval unchanged; two or more heads
  are aggregated into one new interval;
* if it is the root: announces a satisfaction of the global predicate
  (lines 21–22) — or, after failures, of the partial predicate over the
  surviving processes.

The core is pure (no I/O, no clock): it consumes intervals and returns
:class:`Emission` records, and keeps none of them — the caller owns
every emission it is handed.  The simulation role in
:mod:`repro.detect.roles` wraps it with messaging, reordering and
heartbeats, and the fault layer rewires children on tree repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List

from ..intervals import Interval, aggregate
from .base import CoreStats, Solution
from .core import RepeatedDetectionCore

__all__ = ["EmissionKind", "Emission", "HierarchicalNodeCore"]


class EmissionKind(Enum):
    """What a node does with a solution it detected."""

    REPORT = "report"  # non-root: ⊓ of the solution, for the parent
    DETECTION = "detection"  # root: global (or partial) predicate detected


@dataclass(frozen=True)
class Emission:
    kind: EmissionKind
    solution: Solution
    aggregate: Interval


class HierarchicalNodeCore:
    """Algorithm 1 state machine for one spanning-tree node.

    Parameters
    ----------
    node_id:
        This node's process id (also the key of its local queue).
    children:
        Ids of current children in the spanning tree.
    is_root:
        Whether this node currently has no parent.  Mutable: tree
        repair after the root's failure promotes a new root.
    observer:
        Optional lifecycle callback forwarded to the underlying
        :class:`~repro.detect.core.RepeatedDetectionCore` (see its
        docstring) — how span tracing observes enqueues and prunes.
    on_pair_tests:
        Forwarded to the underlying core: the per-activation logical
        pair-test callback backing the ``repro_core_pair_tests_total``
        metric.
    """

    def __init__(
        self,
        node_id: int,
        children: Iterable[int] = (),
        *,
        is_root: bool = False,
        observer=None,
        on_pair_tests=None,
    ) -> None:
        self.node_id = node_id
        self.is_root = is_root
        keys = [node_id, *children]
        if len(set(keys)) != len(keys):
            raise ValueError("children ids must be unique and differ from node_id")
        self._core = RepeatedDetectionCore(
            keys,
            detector_id=node_id,
            observer=observer,
            on_pair_tests=on_pair_tests,
        )
        # Seq of the last interval this node reported: a child queue at
        # the parent takes strictly increasing seqs (IntervalQueue).
        self._last_seq = -1

    # ------------------------------------------------------------------
    @property
    def children(self) -> List[int]:
        return [k for k in self._core.queues if k != self.node_id]

    @property
    def stats(self) -> CoreStats:
        return self._core.stats

    def queue_sizes(self):
        return self._core.queue_sizes()

    def space_in_use(self) -> int:
        return self._core.space_in_use()

    def peak_queue_space(self) -> int:
        return self._core.peak_queue_space()

    def add_observer(self, fn) -> None:
        """Chain an extra queue-lifecycle observer onto the underlying
        core (see :meth:`RepeatedDetectionCore.add_observer`)."""
        self._core.add_observer(fn)

    # ------------------------------------------------------------------
    # tree rewiring (Section III-F)
    # ------------------------------------------------------------------
    def add_child(self, child: int) -> None:
        """A subtree reattached below us: open a queue for it."""
        self._core.add_queue(child)

    def remove_child(self, child: int) -> List[Emission]:
        """A child failed or detached: drop its queue and re-run
        detection — the remaining heads may now form a solution."""
        solutions = self._core.remove_queue(child)
        return self._emit_all(solutions)

    # ------------------------------------------------------------------
    # interval input
    # ------------------------------------------------------------------
    def offer_local(self, interval: Interval) -> List[Emission]:
        """A local-predicate interval completed at this node (queue
        ``Q_0`` of Algorithm 1)."""
        return self._emit_all(self._core.offer(self.node_id, interval))

    def offer_child(self, child: int, interval: Interval) -> List[Emission]:
        """An interval (aggregated unless the child is a leaf) reported
        by *child*.  The caller must deliver a given child's reports in
        sequence order (see :class:`~repro.intervals.ReorderBuffer`)."""
        return self._emit_all(self._core.offer(child, interval))

    # ------------------------------------------------------------------
    def _emit_all(self, solutions: List[Solution]) -> List[Emission]:
        return [self._emit(solution) for solution in solutions]

    def _emit(self, solution: Solution) -> Emission:
        heads = solution.intervals
        if len(heads) == 1 and heads[0].seq > self._last_seq:
            out = heads[0]  # ⊓ of a singleton is the interval itself
        else:
            # Two or more heads; or a singleton whose seq is not above
            # the last report (a leaf that had children, an internal
            # node whose children are gone) is wrapped, numbered after
            # that report.
            out = aggregate(heads, owner=self.node_id, seq=self._last_seq + 1)
        self._last_seq = out.seq
        kind = EmissionKind.DETECTION if self.is_root else EmissionKind.REPORT
        return Emission(kind=kind, solution=solution, aggregate=out)
