"""One-shot regeneration of every experimental artifact.

``repro-experiments all`` (or :func:`generate_report`) runs the full
battery — Table I, Figures 4–5, and every extension experiment — and
produces a single plain-text report mirroring EXPERIMENTS.md's measured
sections.  Useful for re-validating the reproduction after changes, on
new hardware, or with different seeds.
"""

from __future__ import annotations

from typing import List

from ..analysis.report import render_table
from .ablation import (
    alpha_sweep,
    pruning_rule_ablation,
    tree_construction_ablation,
    tree_shape_ablation,
)
from .availability import availability_sweep, format_availability
from .compression import compression_ablation
from .design_space import design_space_comparison, format_design_space
from .figures import empirical_message_sweep, format_figure, message_complexity_figure
from .latency import format_latency, latency_sweep
from .levels import format_levels, level_breakdown
from .scaling import growth_slopes, scaling_sweep
from .table1 import format_table1, run_table1

__all__ = ["generate_report"]


def _header(title: str) -> str:
    bar = "=" * 72
    return f"{bar}\n{title}\n{bar}"


def generate_report(
    *, p: int = 10, seed: int = 7, empirical: bool = True, workers: int = 1
) -> str:
    """Run everything; return the full report text.  ``workers`` shards
    the sweeps that go through the parallel engine (Table I, scaling,
    tree-shape ablation); the report is identical for any value."""
    sections: List[str] = []

    sections.append(_header("Table I — complexity comparison"))
    sections.append(format_table1(run_table1(p=p, seed=seed, workers=workers)))

    for d, label in ((2, "Figure 4"), (4, "Figure 5")):
        sections.append(_header(f"{label} — message complexity (d={d})"))
        sections.append(format_figure(message_complexity_figure(d, p=20)))
        if empirical:
            heights = (2, 3, 4, 5) if d == 2 else (2, 3, 4)
            sections.append("")
            sections.append(
                format_figure(empirical_message_sweep(d, heights, p=p, seed=seed))
            )

    sections.append(_header("Extension — Table-I scaling, measured"))
    points = scaling_sweep(d=2, heights=(3, 4, 5), p=p, seed=seed, workers=workers)
    sections.append(
        render_table(
            ["h", "n", "cmp max/node hier", "cmp max/node cent",
             "space max/node hier", "space max/node cent"],
            [[pt.h, pt.n, pt.hier_cmp_max_node, pt.cent_cmp_max_node,
              pt.hier_space_max_node, pt.cent_space_max_node] for pt in points],
        )
    )
    fmt = lambda xs: ", ".join(f"{x:.2f}" for x in xs)
    sections.append(
        f"growth exponents vs n — cent cmp: {fmt(growth_slopes(points, 'cent_cmp_max_node'))}; "
        f"hier cmp: {fmt(growth_slopes(points, 'hier_cmp_max_node'))}"
    )

    sections.append(_header("Extension — the design space"))
    sections.append(format_design_space(design_space_comparison(p=p, seed=seed)))

    sections.append(_header("Extension — availability under crashes"))
    sections.append(format_availability(availability_sweep(seed=seed)))

    sections.append(_header("Extension — detection latency"))
    sections.append(format_latency(latency_sweep(p=p, seed=seed)))

    sections.append(_header("Extension — per-level message anatomy"))
    sections.append(format_levels(level_breakdown(p=p, seed=seed)))

    sections.append(_header("Extension — starvation behaviour"))
    from .starvation import format_starvation, starvation_comparison

    sections.append(format_starvation(starvation_comparison(p=p, seed=seed)))

    sections.append(_header("Ablation — tree shape"))
    shapes = tree_shape_ablation(p=p, sync_prob=1.0, seed=seed, workers=workers)
    sections.append(
        render_table(
            ["shape", "d", "h", "n", "msgs", "max cmp/node", "detections"],
            [[s.name, s.d, s.h, s.n, s.messages,
              s.max_comparisons_per_node, s.detections] for s in shapes],
        )
    )

    sections.append(_header("Ablation — tree construction (WSN graph)"))
    constructions = tree_construction_ablation(seed=seed)
    sections.append(
        render_table(
            ["construction", "degree", "height", "msgs", "max cmp/node", "detections"],
            [[t.name, t.degree, t.height, t.messages,
              t.max_comparisons_per_node, t.detections] for t in constructions],
        )
    )

    sections.append(_header("Ablation — alpha steering"))
    rows = alpha_sweep(seed=seed)
    sections.append(
        render_table(
            ["sync_prob", "realized alpha", "messages", "detections"],
            [[r["sync_prob"], f"{r['realized_alpha']:.3f}",
              int(r["messages"]), int(r["root_detections"])] for r in rows],
        )
    )

    sections.append(_header("Ablation — timestamp compression"))
    comp_rows = [
        ("epoch sync=1.0", compression_ablation(d=2, h=4, p=p, sync_prob=1.0, seed=seed)),
        ("local traffic", compression_ablation(d=2, h=4, p=p, seed=seed, workload="local")),
    ]
    sections.append(
        render_table(
            ["workload", "reports", "raw", "adaptive", "savings"],
            [[name, r.reports, r.raw_entries, r.adaptive_entries,
              f"{r.savings:.1%}"] for name, r in comp_rows],
        )
    )

    sections.append(_header("Ablation — pruning rule (Eq. 9 vs Eq. 10)"))
    from ..workload.scenarios import figure2_execution

    result = pruning_rule_ablation(figure2_execution().trace, sink=2)
    sections.append(
        f"figure-2 trace: detections eq10={result.detections_eq10} "
        f"eq9={result.detections_eq9}, pruned eq10="
        f"{result.pruned_after_solution_eq10} eq9="
        f"{result.pruned_after_solution_eq9}, same solutions: "
        f"{result.same_solutions}"
    )

    sections.append(_header("Self-validation"))
    from .validation import run_validation

    sections.append(run_validation(trials=30, seed=seed).render())

    return "\n\n".join(sections) + "\n"
