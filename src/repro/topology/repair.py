"""Spanning-tree repair after a crash (Section III-F).

When ``P_i`` fails, its parent drops the corresponding queue, and every
subtree rooted at a child of ``P_i`` must "reconnect itself to the
system-wide spanning tree by establishing a link between a node in the
subtree and its neighbor which is still in the spanning tree".

:func:`plan_repair` computes that reconnection deterministically from
the underlying communication graph:

* if the failed node was the root, the orphan subtree whose root has
  the smallest id is promoted to be the new global root;
* each remaining orphan subtree scans its members for graph-neighbours
  inside the already-connected component, preferring the attachment
  point of smallest tree depth (keeping the tree shallow), then
  smallest ids for determinism;
* if the attachment edge leaves from an interior node of the orphan
  subtree, the subtree is re-rooted there first (the flipped edges are
  reported so detector queues along them can be reset);
* subtrees with no surviving link are *partitioned*: they keep running
  as independent detection domains rooted at the orphan — the
  hierarchical algorithm degrades to monitoring each partition's
  partial predicate, which is precisely the fault-tolerance property
  the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import networkx as nx

from .spanning_tree import SpanningTree

__all__ = ["Attachment", "RepairPlan", "plan_repair", "apply_repair"]


@dataclass(frozen=True)
class Attachment:
    """One orphan subtree's reconnection."""

    orphan: int  # former child of the failed node (old subtree root)
    subtree_root: int  # root after any re-rooting (== orphan if none)
    new_parent: int  # surviving node adopting the subtree
    flipped_edges: Tuple[Tuple[int, int], ...] = ()  # (former_parent, former_child)


@dataclass
class RepairPlan:
    """The outcome of repairing one failure."""

    failed: int
    old_parent: Optional[int]  # surviving parent that lost a child (None if root)
    new_root: Optional[int]  # promoted root when the failed node was the root
    attachments: List[Attachment] = field(default_factory=list)
    partitioned: List[int] = field(default_factory=list)  # orphan roots left detached


def plan_repair(
    tree: SpanningTree, graph: nx.Graph, failed: int
) -> Tuple[SpanningTree, RepairPlan]:
    """Compute the post-failure tree and the repair actions.

    The input *tree* is not modified; a repaired copy is returned along
    with the plan describing which roles must rewire.  *graph* is the
    underlying communication graph (it must contain the tree's edges).
    """
    if failed not in tree.parent:
        raise ValueError(f"{failed} is not in the tree")
    new_tree = SpanningTree(tree.root, dict(tree.parent))
    old_parent = new_tree.parent_of(failed)
    was_root = old_parent is None
    orphans = new_tree.remove_node(failed)
    plan = RepairPlan(failed=failed, old_parent=old_parent, new_root=None)

    connected: set = set()
    if was_root:
        if not orphans:
            # The whole (single-node) tree died.
            return new_tree, plan
        new_root = min(orphans)
        new_tree.set_root(new_root)
        plan.new_root = new_root
        orphans = [o for o in orphans if o != new_root]
        connected = set(new_tree.subtree_nodes(new_root))
    else:
        connected = set(new_tree.subtree_nodes(new_tree.root))

    # Deterministic order: smallest orphan id first.
    pending = sorted(orphans)
    progress = True
    while pending and progress:
        progress = False
        still_pending = []
        for orphan in pending:
            members = new_tree.subtree_nodes(orphan)
            best: Optional[Tuple[int, int, int, int]] = None  # (depth, parent, member)
            for member in members:
                for nb in graph.neighbors(member):
                    if nb in connected and nb != failed:
                        cand = (new_tree.depth(nb), nb, member)
                        if best is None or cand < best:
                            best = cand
            if best is None:
                still_pending.append(orphan)
                continue
            _, new_parent, attach_via = best
            flipped: Tuple[Tuple[int, int], ...] = ()
            subtree_root = orphan
            if attach_via != orphan:
                flipped = tuple(new_tree.reroot_subtree(orphan, attach_via))
                subtree_root = attach_via
            new_tree.attach(subtree_root, new_parent)
            connected.update(members)
            plan.attachments.append(
                Attachment(
                    orphan=orphan,
                    subtree_root=subtree_root,
                    new_parent=new_parent,
                    flipped_edges=flipped,
                )
            )
            progress = True
        pending = still_pending

    plan.partitioned = pending
    return new_tree, plan


def apply_repair(tree: SpanningTree, graph: nx.Graph, failed: int) -> RepairPlan:
    """In-place variant used by the simulation's repair oracle."""
    new_tree, plan = plan_repair(tree, graph, failed)
    tree.root = new_tree.root
    tree.parent = new_tree.parent
    tree._children = new_tree._children  # noqa: SLF001 - same class
    return plan
