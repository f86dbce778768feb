"""Command-line entry point: ``repro-trace`` — run one monitored
scenario and export its telemetry.

    repro-trace --nodes 20 --crash 30:7 \\
        --chrome trace.json --prom metrics.prom --jsonl events.jsonl

builds a 20-node random geometric network, runs the hierarchical
``Definitely(Φ)`` detector over the epoch workload with node 7 crashing
at t=30, and writes a Chrome/Perfetto trace, a Prometheus text
exposition and a JSONL event dump.  The console summary shows the
alarms, detection-latency percentiles, per-level realized α and message
counts.  Everything is deterministic in ``(seed, workload, topology)``:
rerunning the same command reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

__all__ = ["main", "build_parser"]


def _parse_crash(spec: str) -> Tuple[float, int]:
    """``T:PID`` → ``(time, pid)``."""
    try:
        time_s, pid_s = spec.split(":", 1)
        return float(time_s), int(pid_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"crash spec must be TIME:PID, got {spec!r}"
        ) from exc


def _parse_window(spec: str) -> Tuple[float, float]:
    """``T0:T1`` → ``(start, end)``."""
    try:
        lo_s, hi_s = spec.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must be T0:T1, got {spec!r}"
        ) from exc
    if hi < lo:
        raise argparse.ArgumentTypeError("window end must be >= start")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Run a hierarchical Definitely(Φ) monitoring scenario and "
            "export its telemetry (spans, metrics, events)."
        ),
    )
    scenario = parser.add_argument_group("scenario")
    scenario.add_argument("--nodes", type=int, default=20, help="system size (default 20)")
    scenario.add_argument(
        "--topology",
        choices=("geometric", "tree"),
        default="geometric",
        help="random geometric graph + BFS tree, or a regular d-ary tree",
    )
    scenario.add_argument(
        "--degree", type=int, default=2, help="fan-out for --topology tree (default 2)"
    )
    scenario.add_argument("--seed", type=int, default=0, help="master RNG seed")
    scenario.add_argument("--epochs", type=int, default=6, help="workload epochs (paper's p)")
    scenario.add_argument(
        "--sync-prob", type=float, default=0.8, help="P(an epoch is globally synchronized)"
    )
    scenario.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        default=[],
        metavar="T:PID",
        help="crash PID at time T (repeatable; enables heartbeats + repair)",
    )
    scenario.add_argument(
        "--extra-time", type=float, default=0.0, help="simulated time past the workload drain"
    )
    out = parser.add_argument_group("exports")
    out.add_argument("--jsonl", metavar="PATH", help="write the event log as JSON lines")
    out.add_argument("--prom", metavar="PATH", help="write a Prometheus text exposition")
    out.add_argument(
        "--chrome", metavar="PATH", help="write a Chrome/Perfetto trace-event file"
    )
    view = parser.add_argument_group("console views")
    view.add_argument(
        "--window",
        type=_parse_window,
        metavar="T0:T1",
        help="print the event-log records in a simulated-time range",
    )
    view.add_argument(
        "--spans",
        action="store_true",
        help="print each alarm's full causal span tree",
    )
    sub = parser.add_subparsers(dest="view", metavar="VIEW")
    epochs = sub.add_parser(
        "epochs",
        help="run one traffic session and print its epoch lifecycle ledger",
        description=(
            "Run a deterministic virtual-time traffic session "
            "(repro.load.simload.run_traffic) and print the epoch "
            "lifecycle ledger: the accounting identities, queue "
            "watermarks and one row per stranded epoch naming the shed "
            "or abandoned offer that stranded it."
        ),
    )
    epochs.add_argument("--seed", type=int, default=1, help="master RNG seed")
    epochs.add_argument(
        "--rate", type=float, default=400.0, help="open loop: offers/second"
    )
    epochs.add_argument(
        "--total-offers", type=int, default=200, help="offers to issue before stopping"
    )
    epochs.add_argument(
        "--mode",
        choices=("open", "closed"),
        default="open",
        help="rate-driven or user-driven traffic",
    )
    epochs.add_argument(
        "--users",
        type=int,
        default=8,
        help="closed loop: virtual user count, at least the process count",
    )
    epochs.add_argument(
        "--max-outstanding",
        type=int,
        default=16,
        help="admission high watermark on outstanding offers",
    )
    epochs.add_argument(
        "--pending-timeout",
        type=float,
        default=2.0,
        help="abandon admitted offers undetected after this many seconds",
    )
    epochs.add_argument(
        "--degree", type=int, default=2, help="detector tree fan-out"
    )
    epochs.add_argument(
        "--height", type=int, default=3, help="detector tree height"
    )
    epochs.add_argument(
        "--json",
        action="store_true",
        help="dump the full ledger payload as JSON instead of the table",
    )
    return parser


def _build_tree(args):
    from ..topology.spanning_tree import SpanningTree

    if args.topology == "tree":
        if args.degree < 1:
            raise SystemExit("--degree must be >= 1")
        parent = {0: None}
        for node in range(1, args.nodes):
            parent[node] = (node - 1) // args.degree
        return SpanningTree(0, parent), None
    from ..topology.graphs import random_geometric_topology

    graph = random_geometric_topology(args.nodes, seed=args.seed)
    return SpanningTree.bfs(graph, root=0), graph


def _cmd_epochs(args) -> int:
    """The ``repro-trace epochs`` view: one virtual-time traffic run,
    rendered as the stranding ledger plus its accounting identities."""
    import json

    from ..load.simload import run_traffic
    from .cluster import render_epoch_table

    result = run_traffic(
        seed=args.seed,
        degree=args.degree,
        height=args.height,
        mode=args.mode,
        rate=args.rate,
        users=args.users,
        total_offers=args.total_offers,
        max_outstanding=args.max_outstanding,
        pending_timeout=args.pending_timeout,
        start_delay=0.0,
    )
    ledger = result["epoch_ledger"]
    if args.json:
        print(json.dumps(ledger, indent=2, sort_keys=True))
        return 0
    summary = result["summary"]
    spec = result["spec"]
    print(
        f"traffic: mode={spec['mode']} rate={spec['rate']:g} "
        f"offers={spec['total_offers']} nodes={spec['nodes']} "
        f"seed={spec['seed']}"
    )
    print(
        f"offers: offered={summary['offered']} admitted={summary['admitted']} "
        f"shed={summary['shed']} completed={summary['completed']} "
        f"abandoned={summary['abandoned']}"
        f"  (offered == admitted + shed: "
        f"{summary['offered'] == summary['admitted'] + summary['shed']})"
    )
    epochs = summary["epochs"]
    resolved = epochs["solved"] + epochs["stranded"] + epochs["in_flight"]
    print(
        "epoch identity: admitted_epochs == solved + stranded + in_flight: "
        f"{epochs['admitted_epochs'] == resolved}"
    )
    print(f"drained={result['drained']} reference_match={result['reference_match']}")
    print()
    print(render_epoch_table(ledger))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "view", None) == "epochs":
        return _cmd_epochs(args)
    if args.nodes < 1:
        raise SystemExit("--nodes must be >= 1")

    from ..experiments.harness import run_hierarchical
    from ..workload.generator import EpochConfig
    from .export import eventlog_to_jsonl, prometheus_text, write_chrome_trace

    tree, graph = _build_tree(args)
    known = set(tree.nodes)
    for _, pid in args.crash:
        if pid not in known:
            raise SystemExit(
                f"--crash: unknown node {pid} (nodes are 0..{max(known)})"
            )
    # Tree repair prunes crashed nodes in place; remember the initial shape.
    n_initial, height_initial = tree.n, tree.height
    config = EpochConfig(epochs=args.epochs, sync_prob=args.sync_prob)
    result = run_hierarchical(
        tree,
        graph=graph,
        seed=args.seed,
        config=config,
        failures=list(args.crash),
        extra_time=args.extra_time,
    )
    telemetry = result.sim.telemetry

    # ------------------------------------------------------------- summary
    lines: List[str] = []
    lines.append(
        f"n={n_initial} topology={args.topology} height={height_initial} "
        f"seed={args.seed} epochs={args.epochs} sim_time={result.sim.now:.1f}"
    )
    if result.crashed:
        crashed = ", ".join(f"P{pid}@{t:g}" for t, pid in sorted(args.crash))
        lines.append(f"crashes: {crashed}")
    lines.append(
        f"alarms: {len(result.detections)}"
        + "".join(
            f"\n  t={d.time:8.2f}  root=P{d.detector}  members={len(d.members)}"
            for d in result.detections
        )
    )
    percentiles = telemetry.latency_percentiles()
    if telemetry.detection_latency.count == 0:
        lines.append("detection latency: no alarms observed")
    else:
        rendered = " ".join(f"p{q:g}={value:.2f}" for q, value in percentiles)
        lines.append(
            f"detection latency: {rendered} "
            f"(sim time units, {telemetry.detection_latency.count} alarms)"
        )
    alpha = result.metrics.realized_alpha_by_level
    if alpha:
        rendered = "  ".join(
            f"L{level}={alpha[level]:.2f}" for level in sorted(alpha)
        )
        lines.append(f"realized α by level: {rendered}")
    lines.append(
        f"messages: control={result.metrics.control_messages} "
        f"app={result.metrics.app_messages}"
    )
    lines.append(f"spans: {len(telemetry.spans)}  events: {len(result.sim.log)}")
    print("\n".join(lines))

    # ------------------------------------------------------------- views
    if args.spans:
        for alarm in telemetry.spans.alarms():
            print()
            print(telemetry.spans.render_tree(alarm))
    if args.window is not None:
        lo, hi = args.window
        print()
        print(f"events in [{lo:g}, {hi:g}]:")
        for record in result.sim.log.between(lo, hi):
            print(f"  {record}")

    # ------------------------------------------------------------- exports
    if args.jsonl:
        count = eventlog_to_jsonl(result.sim.log, args.jsonl)
        print(f"wrote {count} events -> {args.jsonl}")
    if args.prom:
        text = prometheus_text(telemetry.registry)
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(telemetry.registry)} metrics -> {args.prom}")
    if args.chrome:
        levels = {pid: tree.level(pid) for pid in tree.nodes}
        count = write_chrome_trace(telemetry.spans, args.chrome, levels=levels)
        print(f"wrote {count} trace events -> {args.chrome}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
