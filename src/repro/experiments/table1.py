"""Experiment: Table I — complexity comparison, analytic and empirical.

The paper's Table I states the space/time/message complexities of the
hierarchical algorithm versus the centralized repeated-detection
baseline [12].  This experiment reproduces it twice:

* **symbolic** — the Table I rows verbatim (with the corrected message
  closed form; see the erratum in :mod:`repro.analysis.complexity`);
* **empirical** — for each ``(d, h)`` configuration, one identical
  epoch workload run under both algorithms, measuring

  - control messages (hop-counted),
  - timestamp comparisons: total vs. the maximum at any single node
    (the "distributed across all processes" vs "at the sink" contrast),
  - peak queue space: total vs. the maximum at any single node.

Shape expectations: both algorithms detect the same occurrences; the
centralized run concentrates ~100% of comparisons and queue space at
the sink while the hierarchical run spreads them; centralized sends a
growing multiple of the hierarchical message count as ``h`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..analysis.complexity import (
    centralized_messages,
    hierarchical_messages,
    table1_rows,
)
from ..analysis.report import render_table
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig
from .harness import run_centralized, run_hierarchical

__all__ = ["Table1Row", "run_table1", "format_table1", "table1_specs"]


@dataclass
class Table1Row:
    d: int
    h: int
    n: int
    hier_messages: int
    cent_messages: int
    hier_detections: int
    cent_detections: int
    hier_comparisons_total: int
    hier_comparisons_max_node: int
    cent_comparisons_total: int
    cent_comparisons_max_node: int
    hier_queue_total: int
    hier_queue_max_node: int
    cent_queue_max_node: int
    analytic_hier_messages: float
    analytic_cent_messages: float
    realized_alpha: float


def table1_specs(
    configs: Sequence[Tuple[int, int]],
    *,
    p: int = 10,
    sync_prob: float = 0.7,
    seed: int = 7,
) -> list:
    """The sweep as :class:`~repro.experiments.parallel.RunSpec` pairs
    (hierarchical then centralized per config, in config order) — the
    unit the sharded runner fans out."""
    from .parallel import RunSpec

    specs = []
    for d, h in configs:
        config = EpochConfig(epochs=p, sync_prob=sync_prob)
        for name, fn in (("hier", run_hierarchical), ("cent", run_centralized)):
            specs.append(
                RunSpec(
                    fn=fn,
                    args=(SpanningTree.regular(d, h),),
                    kwargs={"config": config},
                    seed=seed,
                    label=f"table1-{name}-d{d}h{h}",
                )
            )
    return specs


def run_table1(
    configs: Sequence[Tuple[int, int]] = ((2, 3), (2, 4), (3, 3), (4, 3)),
    *,
    p: int = 10,
    sync_prob: float = 0.7,
    seed: int = 7,
    workers: int = 1,
) -> List[Table1Row]:
    """Run both algorithms on each ``(d, h)`` tree and measure.

    ``workers`` shards the ``2 × len(configs)`` independent runs over a
    process pool (see :mod:`repro.experiments.parallel`); the rows are
    identical for any worker count.
    """
    from .parallel import ShardedRunner

    specs = table1_specs(configs, p=p, sync_prob=sync_prob, seed=seed)
    report = ShardedRunner(workers=workers).run(specs)
    rows: List[Table1Row] = []
    for (d, h), hier, cent in zip(
        configs, report.shards[0::2], report.shards[1::2]
    ):
        tree = SpanningTree.regular(d, h)
        upper_alphas = [
            alpha
            for level, alpha in hier.metrics.realized_alpha_by_level.items()
            if level >= 2
        ]
        realized_alpha = (
            sum(upper_alphas) / len(upper_alphas) if upper_alphas else 0.0
        )
        rows.append(
            Table1Row(
                d=d,
                h=h,
                n=tree.n,
                hier_messages=hier.metrics.control_messages,
                cent_messages=cent.metrics.control_messages,
                hier_detections=hier.metrics.root_detections,
                cent_detections=cent.metrics.root_detections,
                hier_comparisons_total=hier.metrics.total_comparisons,
                hier_comparisons_max_node=hier.metrics.max_comparisons_per_node,
                cent_comparisons_total=cent.metrics.total_comparisons,
                cent_comparisons_max_node=cent.metrics.max_comparisons_per_node,
                hier_queue_total=hier.metrics.total_peak_queue,
                hier_queue_max_node=hier.metrics.max_queue_per_node,
                cent_queue_max_node=cent.metrics.max_queue_per_node,
                analytic_hier_messages=hierarchical_messages(
                    p, d, h, realized_alpha
                ),
                analytic_cent_messages=centralized_messages(p, d, h),
                realized_alpha=realized_alpha,
            )
        )
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    parts = ["Table I (symbolic, as in the paper):"]
    parts.append(
        render_table(
            ["metric", "hierarchical", "centralized [12]"],
            [[r["metric"], r["hierarchical"], r["centralized"]] for r in table1_rows()],
        )
    )
    parts.append("")
    parts.append(f"Empirical (epoch workload, p intervals/process):")
    headers = [
        "d", "h", "n",
        "msgs hier", "msgs cent", "msgs ratio",
        "analytic hier", "analytic cent",
        "det hier", "det cent",
        "cmp max-node hier", "cmp max-node cent",
        "queue max-node hier", "queue max-node cent",
        "alpha",
    ]
    body = []
    for r in rows:
        ratio = r.cent_messages / r.hier_messages if r.hier_messages else float("inf")
        body.append(
            [
                r.d, r.h, r.n,
                r.hier_messages, r.cent_messages, f"{ratio:.2f}",
                f"{r.analytic_hier_messages:.0f}", f"{r.analytic_cent_messages:.0f}",
                r.hier_detections, r.cent_detections,
                r.hier_comparisons_max_node, r.cent_comparisons_max_node,
                r.hier_queue_max_node, r.cent_queue_max_node,
                f"{r.realized_alpha:.2f}",
            ]
        )
    parts.append(render_table(headers, body))
    return "\n".join(parts)
