"""Experiment: queue behaviour under starvation.

What happens when one process's local predicate *never* joins a global
occurrence (a permanently cold sensor)?  Detection legitimately never
fires — but the two algorithms store the backlog very differently, and
the difference is structural, not accidental:

* **Centralized sink:** the starved process still reports its (early-
  ended) raw intervals directly to the sink.  Every fresh head triggers
  the pairwise pruning cascade, and cross-epoch incompatibility purges
  stale heads from *all* queues — the sink's queues churn at O(1).
* **Hierarchical:** the starved process's *parent* prunes the same way
  (its queues stay tiny), but it never finds a subtree solution, so it
  never reports upward.  Its ancestors' other queues then grow — up to
  the paper's per-queue bound ``p`` — because head-pruning evidence only
  arrives with fresh heads, and the blocked child queue never produces
  one.

Both stay within the paper's space bounds (per-queue O(p), global
O(pn²)), and the hierarchical backlog remains *distributed* along the
starved path rather than centralized.  The experiment measures and the
tests pin exactly this shape; it also documents the practical
implication (long-blocked subtrees hold p intervals per ancestor queue
— a deployment wanting bounded memory under indefinite starvation needs
an aging policy, which the paper does not discuss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import render_table
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig
from .harness import run_centralized, run_hierarchical

__all__ = ["StarvationResult", "starvation_comparison", "format_starvation"]


@dataclass
class StarvationResult:
    algorithm: str
    detections: int
    max_queue_any_node: int
    starved_parent_queue: int  # hierarchical: the defector's parent's total
    blocked_ancestor_queue: int  # hierarchical: a blocked ancestor's total
    control_messages: int


def starvation_comparison(
    *, d: int = 2, h: int = 4, p: int = 20, seed: int = 2
) -> List[StarvationResult]:
    tree = SpanningTree.regular(d, h)
    defector = tree.leaves()[-1]
    parent = tree.parent_of(defector)
    grandparent = tree.parent_of(parent)
    config = EpochConfig(epochs=p, sync_prob=1.0, permanent_defectors=(defector,))

    hier = run_hierarchical(tree, seed=seed, config=config)
    cent = run_centralized(SpanningTree.regular(d, h), seed=seed, config=config)

    def total_queued(role) -> int:
        return sum(role.core.queue_sizes().values())

    results = [
        StarvationResult(
            algorithm="hierarchical",
            detections=hier.metrics.root_detections,
            max_queue_any_node=hier.metrics.max_queue_per_node,
            starved_parent_queue=total_queued(hier.roles[parent]),
            blocked_ancestor_queue=(
                total_queued(hier.roles[grandparent]) if grandparent is not None else 0
            ),
            control_messages=hier.metrics.control_messages,
        ),
        StarvationResult(
            algorithm="centralized [12]",
            detections=len(cent.detections),
            max_queue_any_node=cent.metrics.max_queue_per_node,
            starved_parent_queue=0,
            blocked_ancestor_queue=0,
            control_messages=cent.metrics.control_messages,
        ),
    ]
    return results


def format_starvation(results: List[StarvationResult]) -> str:
    return render_table(
        ["algorithm", "detections", "max queue (any node)",
         "starved parent's queues", "blocked ancestor's queues", "ctrl msgs"],
        [
            [r.algorithm, r.detections, r.max_queue_any_node,
             r.starved_parent_queue, r.blocked_ancestor_queue,
             r.control_messages]
            for r in results
        ],
    )
