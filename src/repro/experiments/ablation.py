"""Ablation experiments for the design choices DESIGN.md calls out.

1. **Tree shape** (:func:`tree_shape_ablation`): the hierarchical
   algorithm degenerates into the centralized one on a star (``h=2``);
   sweeping shapes of similar ``n`` — star, shallow, binary, chain —
   shows how the hierarchy trades per-node load against report hops,
   the ``d² < n`` argument of Section IV-C.

2. **α steering** (:func:`alpha_sweep`): the workload's ``sync_prob``
   knob versus the realized per-level aggregation probability and the
   resulting message count — the empirical counterpart of the α
   parameter in Eq. (11).

3. **Pruning rule** (:func:`pruning_rule_ablation`): the paper prunes
   with the approximation Eq. (10) because ``min(succ(x_j))`` is not
   yet known online.  With hindsight (a recorded trace), the exact
   Eq. (9) test can be evaluated; this ablation replays executions
   under both rules and reports how often the approximation delays a
   removal that Eq. (9) would have allowed — and verifies both detect
   identical occurrence sequences (Theorem 3/4's point: Eq. 10 is safe
   and live, merely conservative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..clocks import vc_less
from ..detect.centralized import CentralizedSinkCore
from ..intervals import Interval
from ..sim.trace import ExecutionTrace
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig
from .harness import run_hierarchical

__all__ = [
    "ShapeResult",
    "tree_shape_ablation",
    "alpha_sweep",
    "PruningResult",
    "pruning_rule_ablation",
    "replay_with_eq9",
    "TreeConstructionResult",
    "tree_construction_ablation",
]


# ----------------------------------------------------------------------
# 1. tree shape
# ----------------------------------------------------------------------
@dataclass
class ShapeResult:
    name: str
    d: int
    h: int
    n: int
    messages: int
    max_comparisons_per_node: int
    total_comparisons: int
    max_queue_per_node: int
    detections: int


def tree_shape_ablation(
    shapes: Sequence[Tuple[str, int, int]] = (
        ("star", 14, 2),
        ("shallow", 3, 3),
        ("binary", 2, 4),
    ),
    *,
    p: int = 10,
    sync_prob: float = 0.7,
    seed: int = 3,
    workers: int = 1,
) -> List[ShapeResult]:
    """Run the hierarchical detector over differently shaped trees of
    comparable size (default shapes: n = 15, 13, 15).  ``workers``
    shards the independent per-shape runs over the parallel engine."""
    from .parallel import RunSpec, ShardedRunner

    specs = [
        RunSpec(
            fn=run_hierarchical,
            args=(SpanningTree.regular(d, h),),
            kwargs={"config": EpochConfig(epochs=p, sync_prob=sync_prob)},
            seed=seed,
            label=f"shape-{name}",
        )
        for name, d, h in shapes
    ]
    report = ShardedRunner(workers=workers).run(specs)
    out: List[ShapeResult] = []
    for (name, d, h), shard in zip(shapes, report.shards):
        out.append(
            ShapeResult(
                name=name,
                d=d,
                h=h,
                n=SpanningTree.regular(d, h).n,
                messages=shard.metrics.control_messages,
                max_comparisons_per_node=shard.metrics.max_comparisons_per_node,
                total_comparisons=shard.metrics.total_comparisons,
                max_queue_per_node=shard.metrics.max_queue_per_node,
                detections=shard.metrics.root_detections,
            )
        )
    return out


# ----------------------------------------------------------------------
# 2. alpha steering
# ----------------------------------------------------------------------
def alpha_sweep(
    *,
    d: int = 2,
    h: int = 4,
    p: int = 12,
    sync_probs: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    seed: int = 5,
) -> List[Dict[str, float]]:
    """Realized α and message counts across the sync knob."""
    rows: List[Dict[str, float]] = []
    for sync_prob in sync_probs:
        result = run_hierarchical(
            SpanningTree.regular(d, h),
            seed=seed,
            config=EpochConfig(epochs=p, sync_prob=sync_prob),
        )
        upper = [
            a
            for lvl, a in result.metrics.realized_alpha_by_level.items()
            if lvl >= 2
        ]
        rows.append(
            {
                "sync_prob": sync_prob,
                "realized_alpha": sum(upper) / len(upper) if upper else 0.0,
                "messages": float(result.metrics.control_messages),
                "root_detections": float(result.metrics.root_detections),
            }
        )
    return rows


# ----------------------------------------------------------------------
# 3. pruning rule: Eq. (10) vs exact Eq. (9)
# ----------------------------------------------------------------------
class _Eq9SinkCore(CentralizedSinkCore):
    """Centralized core whose post-solution pruning uses the exact
    Eq. (9) — ``remove x_i iff ∀ x_j (j≠i): min(succ(x_j)) ≮ max(x_i)``
    — evaluated with hindsight from the full interval lists."""

    def __init__(self, sink_id, process_ids, successors):
        super().__init__(sink_id, process_ids)
        # successors: (owner, seq) -> successor interval (or None)
        self._successors = successors
        core = self._core

        def removable(heads: Dict[Hashable, Interval]) -> set:
            keys = list(heads)
            removable_keys = set()
            for a in keys:
                hi_a = heads[a].hi
                ok = True
                for b in keys:
                    if b == a:
                        continue
                    succ = self._successors.get((heads[b].owner, heads[b].seq))
                    if succ is not None and vc_less(succ.lo, hi_a):
                        ok = False
                        break
                if ok:
                    removable_keys.add(a)
            # Eq. (9) may allow zero removals only if every interval can
            # recur — impossible by the paper's Theorem 4 argument, but
            # guard with Eq. (10) as the paper effectively does online.
            if not removable_keys:
                return type(core)._removable_heads(core, heads)
            return removable_keys

        core._removable_heads = removable  # type: ignore[method-assign]


@dataclass
class PruningResult:
    detections_eq10: int
    detections_eq9: int
    pruned_after_solution_eq10: int
    pruned_after_solution_eq9: int
    same_solutions: bool


def replay_with_eq9(trace: ExecutionTrace, sink: int = 0):
    """Replay a recorded trace through the Eq. (9) sink."""
    successors: Dict[tuple, Optional[Interval]] = {}
    for pid, intervals in trace.all_intervals().items():
        for i, interval in enumerate(intervals):
            successors[(pid, interval.seq)] = (
                intervals[i + 1] if i + 1 < len(intervals) else None
            )
    core = _Eq9SinkCore(sink, list(range(trace.n)), successors)
    solutions = []
    for interval in trace.intervals_in_completion_order():
        solutions.extend(core.offer(interval.owner, interval))
    return core, solutions


def pruning_rule_ablation(trace: ExecutionTrace, sink: int = 0) -> PruningResult:
    """Replay one trace under both pruning rules and compare."""
    eq10 = CentralizedSinkCore(sink, list(range(trace.n)))
    eq10_solutions = []
    for interval in trace.intervals_in_completion_order():
        eq10_solutions.extend(eq10.offer(interval.owner, interval))
    eq9_core, eq9_solutions = replay_with_eq9(trace, sink)

    def keys(solutions):
        return [
            tuple(sorted((iv.owner, iv.seq) for iv in s.heads.values()))
            for s in solutions
        ]

    return PruningResult(
        detections_eq10=len(eq10_solutions),
        detections_eq9=len(eq9_solutions),
        pruned_after_solution_eq10=eq10.stats.pruned_after_solution,
        pruned_after_solution_eq9=eq9_core.stats.pruned_after_solution,
        same_solutions=keys(eq10_solutions) == keys(eq9_solutions),
    )


# ----------------------------------------------------------------------
# 4. spanning-tree construction: plain BFS vs degree-bounded BFS
# ----------------------------------------------------------------------
@dataclass
class TreeConstructionResult:
    name: str
    degree: int
    height: int
    messages: int
    max_comparisons_per_node: int
    detections: int


def tree_construction_ablation(
    *,
    n: int = 40,
    max_degree: int = 3,
    p: int = 8,
    seed: int = 9,
) -> List[TreeConstructionResult]:
    """On a WSN-style geometric graph, compare the monitoring costs of a
    plain BFS spanning tree (hub-prone) against the degree-bounded
    construction — the d-vs-h tradeoff of Section IV, made actionable.
    """
    from ..topology.graphs import random_geometric_topology

    graph = random_geometric_topology(n, seed=seed)
    out: List[TreeConstructionResult] = []
    for name, tree in (
        ("bfs", SpanningTree.bfs(graph, root=0)),
        ("bfs_bounded", SpanningTree.bfs_bounded(graph, root=0, max_degree=max_degree)),
    ):
        result = run_hierarchical(
            tree,
            graph=graph,
            seed=seed,
            config=EpochConfig(epochs=p, sync_prob=1.0),
        )
        out.append(
            TreeConstructionResult(
                name=name,
                degree=tree.degree,
                height=tree.height,
                messages=result.metrics.control_messages,
                max_comparisons_per_node=result.metrics.max_comparisons_per_node,
                detections=result.metrics.root_detections,
            )
        )
    return out
