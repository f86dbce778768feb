"""Command-line entry point: ``repro-experiments <experiment>``.

Regenerates the paper's table and figures from the terminal:

    repro-experiments table1
    repro-experiments fig4 [--empirical]
    repro-experiments fig5 [--empirical]
    repro-experiments ablation
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..analysis.report import render_table
from .ablation import alpha_sweep, tree_construction_ablation, tree_shape_ablation
from .availability import availability_sweep, format_availability
from .design_space import design_space_comparison, format_design_space
from .figures import empirical_message_sweep, format_figure, message_complexity_figure
from .latency import format_latency, latency_sweep
from .levels import format_levels, level_breakdown
from .scaling import growth_slopes, scaling_sweep
from .starvation import format_starvation, starvation_comparison
from .table1 import format_table1, run_table1

__all__ = ["main"]


def _cmd_table1(args) -> None:
    rows = run_table1(p=args.p, seed=args.seed, workers=args.workers)
    print(format_table1(rows))


def _cmd_figure(d: int, args) -> None:
    print(format_figure(message_complexity_figure(d, p=args.p)))
    if args.empirical:
        heights = range(2, 6) if d == 2 else range(2, 5)
        print()
        print(format_figure(empirical_message_sweep(d, heights, p=args.p, seed=args.seed)))


def _cmd_ablation(args) -> None:
    shapes = tree_shape_ablation(p=args.p, seed=args.seed, workers=args.workers)
    print("Tree-shape ablation (hierarchical detector):")
    print(
        render_table(
            ["shape", "d", "h", "n", "msgs", "max cmp/node", "total cmp", "max queue/node", "detections"],
            [
                [s.name, s.d, s.h, s.n, s.messages, s.max_comparisons_per_node,
                 s.total_comparisons, s.max_queue_per_node, s.detections]
                for s in shapes
            ],
        )
    )
    print()
    print("Tree construction on a 40-node WSN graph (BFS vs degree-bounded):")
    print(
        render_table(
            ["construction", "degree", "height", "msgs", "max cmp/node", "detections"],
            [
                [t.name, t.degree, t.height, t.messages,
                 t.max_comparisons_per_node, t.detections]
                for t in tree_construction_ablation(seed=args.seed)
            ],
        )
    )
    print()
    print("Alpha steering (sync knob vs realized alpha):")
    rows = alpha_sweep(seed=args.seed)
    print(
        render_table(
            ["sync_prob", "realized alpha", "messages", "root detections"],
            [
                [r["sync_prob"], f"{r['realized_alpha']:.3f}",
                 int(r["messages"]), int(r["root_detections"])]
                for r in rows
            ],
        )
    )


def _cmd_scaling(args) -> None:
    points = scaling_sweep(
        d=2, heights=(3, 4, 5), p=args.p, seed=args.seed, workers=args.workers
    )
    print("Empirical Table-I scaling (same workload, both algorithms):")
    print(
        render_table(
            ["h", "n", "cmp max/node hier", "cmp max/node cent",
             "space max/node hier", "space max/node cent", "detections"],
            [
                [pt.h, pt.n, pt.hier_cmp_max_node, pt.cent_cmp_max_node,
                 pt.hier_space_max_node, pt.cent_space_max_node, pt.detections]
                for pt in points
            ],
        )
    )
    print()
    fmt = lambda xs: ", ".join(f"{x:.2f}" for x in xs)
    print("local log-log growth exponents vs n:")
    print(f"  centralized sink comparisons : {fmt(growth_slopes(points, 'cent_cmp_max_node'))}")
    print(f"  busiest hierarchical node    : {fmt(growth_slopes(points, 'hier_cmp_max_node'))}")
    print(f"  centralized sink space       : {fmt(growth_slopes(points, 'cent_space_max_node'))}")
    print(f"  busiest hierarchical space   : {fmt(growth_slopes(points, 'hier_space_max_node'))}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's table and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "fig4", "fig5", "ablation", "scaling",
            "design-space", "availability", "latency", "levels", "starvation",
            "validate", "all",
        ],
    )
    parser.add_argument("--p", type=int, default=20, help="intervals per process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--empirical",
        action="store_true",
        help="also run simulator sweeps (slower) for the figures",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded sweeps (table1, scaling, "
        "ablation, all); results are identical for any value",
    )
    parser.add_argument(
        "--out", default=None, help="for 'all': also write the report to this file"
    )
    args = parser.parse_args(argv)
    if args.experiment == "table1":
        _cmd_table1(args)
    elif args.experiment == "fig4":
        _cmd_figure(2, args)
    elif args.experiment == "fig5":
        _cmd_figure(4, args)
    elif args.experiment == "scaling":
        _cmd_scaling(args)
    elif args.experiment == "design-space":
        print("One representative per algorithm family, identical workload:")
        print(format_design_space(design_space_comparison(p=args.p, seed=args.seed)))
    elif args.experiment == "availability":
        print("Monitoring availability under crashes (fully synced workload):")
        print(format_availability(availability_sweep(seed=args.seed)))
    elif args.experiment == "latency":
        print("Detection latency (announcement minus occurrence completion):")
        print(format_latency(latency_sweep(seed=args.seed)))
    elif args.experiment == "levels":
        print("Per-level report counts (the anatomy of Eq. 11):")
        print(format_levels(level_breakdown(p=min(args.p, 12), seed=args.seed)))
    elif args.experiment == "starvation":
        print("Queue behaviour with one permanently cold process:")
        print(format_starvation(starvation_comparison(p=args.p, seed=args.seed)))
    elif args.experiment == "validate":
        from .validation import run_validation

        report = run_validation(trials=50, seed=args.seed)
        print(report.render())
        return 0 if report.ok else 1
    elif args.experiment == "all":
        from .suite import generate_report

        report = generate_report(p=min(args.p, 12), seed=args.seed,
                                 empirical=args.empirical, workers=args.workers)
        print(report)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(report)
    else:
        _cmd_ablation(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
