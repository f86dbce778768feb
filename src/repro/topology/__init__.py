"""Communication graphs, spanning trees and tree repair."""

from .graphs import (
    complete_topology,
    grid_topology,
    random_geometric_topology,
    scale_free_topology,
    small_world_topology,
    tree_with_chords,
)
from .repair import Attachment, RepairPlan, apply_repair, plan_repair
from .spanning_tree import SpanningTree, regular_tree_size

__all__ = [
    "Attachment",
    "RepairPlan",
    "SpanningTree",
    "apply_repair",
    "complete_topology",
    "grid_topology",
    "plan_repair",
    "random_geometric_topology",
    "regular_tree_size",
    "scale_free_topology",
    "small_world_topology",
    "tree_with_chords",
]
