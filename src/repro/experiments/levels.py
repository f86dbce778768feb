"""Experiment: per-level message structure of the hierarchy.

Eq. (11) is a sum over tree levels: level ``i`` (leaves = 1) sends
``d^(h-i) · p · (dα)^(i-1)`` reports to level ``i+1``.  This experiment
measures the actual per-level report counts of a simulated run and
compares them against

* the paper's per-level model at the realized α, and
* the structural bound (a node cannot emit more aggregates than the
  weakest of its input streams — the correction noted in
  EXPERIMENTS.md).

Leaves are exact by construction (every local interval is forwarded:
level-1 count == #leaves × p); higher levels shrink geometrically with
the realized α.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import render_table
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig
from .harness import run_hierarchical

__all__ = ["LevelRow", "level_breakdown", "format_levels"]


@dataclass
class LevelRow:
    level: int  # paper numbering: leaves = 1, root = h
    nodes: int
    reports_sent: int  # aggregates emitted by this level (root: detections)
    paper_model: float  # d^(h-i) · p · (dα)^(i-1) at realized α
    realized_alpha: float


def level_breakdown(
    *,
    d: int = 2,
    h: int = 4,
    p: int = 12,
    sync_prob: float = 0.6,
    seed: int = 31,
) -> List[LevelRow]:
    tree = SpanningTree.regular(d, h)
    result = run_hierarchical(
        tree, seed=seed, config=EpochConfig(epochs=p, sync_prob=sync_prob)
    )
    emissions_by_level: Dict[int, int] = {}
    nodes_by_level: Dict[int, int] = {}
    for pid, role in result.roles.items():
        level = tree.level(pid)
        nodes_by_level[level] = nodes_by_level.get(level, 0) + 1
        emissions_by_level[level] = (
            emissions_by_level.get(level, 0) + role.core.stats.detections
        )
    upper = [
        a for lvl, a in result.metrics.realized_alpha_by_level.items() if lvl >= 2
    ]
    alpha = sum(upper) / len(upper) if upper else 0.0
    rows: List[LevelRow] = []
    for level in sorted(nodes_by_level):
        rows.append(
            LevelRow(
                level=level,
                nodes=nodes_by_level[level],
                reports_sent=emissions_by_level.get(level, 0),
                paper_model=d ** (h - level) * p * (d * alpha) ** (level - 1),
                realized_alpha=alpha,
            )
        )
    return rows


def format_levels(rows: List[LevelRow]) -> str:
    return render_table(
        ["level", "nodes", "reports sent", "paper model @ realized alpha"],
        [
            [r.level, r.nodes, r.reports_sent, f"{r.paper_model:.1f}"]
            for r in rows
        ],
    )
