"""``repro-cluster`` — run, poke and observe localhost detection clusters.

Subcommands:

* ``run`` — build an n-node tree, launch every node on its own TCP (or
  loopback) transport inside one process, replay a simulator-derived
  interval script and wait for live ``Definitely(Φ)`` detections.  With
  ``--kill-node`` it additionally crash-stops a node mid-run and only
  exits 0 if the tree repaired itself *and* detection continued over
  the survivors — the paper's fault-tolerance claim, demonstrated on
  real sockets (this is what CI's ``net-smoke`` job runs).
* ``status`` — query a running cluster's admin endpoint.
* ``kill-node`` — crash a node in a running cluster via its admin
  endpoint.
* ``watch`` — scrape a running cluster's per-node telemetry islands
  through the admin endpoint, merge + trace-stitch them
  (:mod:`repro.obs.cluster`) and print the live cluster status table
  (per-node alarms/reports, realized α by level, reconnects, outbox
  depths); ``--interval`` re-polls until interrupted.
* ``profile`` — fetch a running cluster's continuous-profiler state
  (armed by ``run --profile``): the JSON summary, or ``--collapsed``
  flamegraph stacks ready for speedscope / ``flamegraph.pl``.
* ``postmortem`` — reconstruct the crash → repair → recovery timeline
  from a directory of flight-recorder snapshots
  (:mod:`repro.obs.flight`), as written by ``run --flight-dir``.

Exports mirror ``repro-trace``: ``--prom`` / ``--jsonl`` / ``--chrome``
write the *aggregated* cluster telemetry — per-node registries merged,
span trees stitched across TCP hops — so all ``repro_net_*`` socket
metrics appear next to the ordinary detection metrics and alarm traces
read end-to-end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description=(
            "Run the hierarchical Definitely(Φ) detector as a localhost "
            "socket cluster (one asyncio node per tree vertex)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="launch a cluster and wait for detections")
    shape = run.add_argument_group("cluster shape")
    shape.add_argument("--nodes", type=int, default=7, help="tree size (default 7)")
    shape.add_argument("--degree", type=int, default=2, help="tree fan-out (default 2)")
    shape.add_argument("--seed", type=int, default=1, help="master RNG seed")
    shape.add_argument(
        "--transport",
        choices=("tcp", "loopback"),
        default="tcp",
        help="real sockets, or the in-process loopback hub",
    )
    shape.add_argument(
        "--epochs", type=int, default=4, help="reference-workload epochs (default 4)"
    )
    shape.add_argument(
        "--sync-prob",
        type=float,
        default=1.0,
        help="probability an epoch is a global occurrence (default 1.0; "
        "rates < 1 mix in intervals that never join a solution)",
    )
    shape.add_argument(
        "--interval-spacing",
        type=float,
        default=0.02,
        help="wall seconds between a node's successive interval offers",
    )
    load = run.add_argument_group("traffic plane (repro.load)")
    load.add_argument(
        "--load",
        choices=("open", "closed"),
        default=None,
        help="drive offers through the load plane — open (rate-driven) or "
        "closed (virtual users) — instead of the fixed-spacing replay",
    )
    load.add_argument(
        "--load-rate",
        type=float,
        default=200.0,
        metavar="PER_S",
        help="open loop: offered load in offers/second (default 200)",
    )
    load.add_argument(
        "--load-arrival",
        choices=("poisson", "uniform", "bursty"),
        default="poisson",
        help="open loop: interarrival model (default poisson)",
    )
    load.add_argument(
        "--load-users",
        type=int,
        default=8,
        help="closed loop: virtual user count (default 8)",
    )
    load.add_argument(
        "--load-think",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="closed loop: mean think time between offers (default 0.05)",
    )
    load.add_argument(
        "--load-offers",
        type=int,
        default=200,
        help="total offers to issue (default 200)",
    )
    load.add_argument(
        "--load-zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="popularity skew exponent (0 = uniform; default 1.1)",
    )
    load.add_argument(
        "--load-dispatch",
        choices=("round_robin", "least_outstanding", "weighted", "affinity"),
        default="round_robin",
        help="dispatch policy routing offers to nodes (default round_robin)",
    )
    load.add_argument(
        "--load-policy",
        choices=("shed", "defer"),
        default="shed",
        help="what admission does at saturation (default shed)",
    )
    load.add_argument(
        "--load-max-outstanding",
        type=int,
        default=64,
        metavar="N",
        help="admission high watermark on outstanding offers (default 64; "
        "must be at least the node count)",
    )
    load.add_argument(
        "--load-pending-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="abandon admitted offers undetected after this long (default 5)",
    )
    stop = run.add_argument_group("stopping conditions")
    stop.add_argument(
        "--duration", type=float, default=None, help="run for this many wall seconds"
    )
    stop.add_argument(
        "--until-detections",
        type=int,
        default=1,
        help="wait for at least this many detections (default 1)",
    )
    stop.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="hard wall-clock bound on each wait (default 60s)",
    )
    fault = run.add_argument_group("fault injection")
    fault.add_argument(
        "--kill-node",
        type=int,
        default=None,
        metavar="PID",
        help="crash-stop PID mid-run and require repair + continued detection",
    )
    fault.add_argument(
        "--kill-after-detections",
        type=int,
        default=1,
        help="inject the kill once this many detections have fired (default 1)",
    )
    obs = run.add_argument_group("observability")
    obs.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="head-sample span traces at this rate per node (default 1.0: keep all)",
    )
    obs.add_argument(
        "--span-capacity",
        type=int,
        default=None,
        metavar="ROWS",
        help="bound each node's span table to a ring of ROWS (default: unbounded)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="run a continuous stack-sampling profiler over the cluster loop",
    )
    obs.add_argument(
        "--profile-interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="seconds between profiler samples (default 0.005)",
    )
    obs.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm flight recorders; crash/repair/SLO snapshots land here",
    )
    obs.add_argument(
        "--flight-capacity",
        type=int,
        default=256,
        help="flight-recorder ring size (default 256)",
    )
    obs.add_argument(
        "--slo-latency-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO: breach when any node's detection-latency p99 exceeds this",
    )
    obs.add_argument(
        "--slo-repair-duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO: breach when a repair takes longer than this",
    )
    obs.add_argument(
        "--slo-stranded-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "SLO: breach when stranded epochs exceed this fraction of "
            "admitted epochs (needs --load; see the epoch ledger docs)"
        ),
    )
    obs.add_argument(
        "--slo-outbox-depth",
        type=int,
        default=None,
        metavar="MESSAGES",
        help="SLO: breach when any peer outbox exceeds this depth",
    )
    out = run.add_argument_group("exports")
    out.add_argument("--admin-port", type=int, default=None, help="serve the admin endpoint")
    out.add_argument("--prom", metavar="PATH", help="write a Prometheus text exposition")
    out.add_argument("--jsonl", metavar="PATH", help="write the event log as JSON lines")
    out.add_argument(
        "--chrome", metavar="PATH", help="write the stitched span trace as Chrome trace JSON"
    )
    out.add_argument(
        "--summary-json", metavar="PATH", help="write the run summary as JSON (default: stdout)"
    )

    status = sub.add_parser("status", help="query a running cluster")
    kill = sub.add_parser("kill-node", help="crash a node in a running cluster")
    watch = sub.add_parser(
        "watch", help="scrape + merge a running cluster's telemetry"
    )
    profile = sub.add_parser(
        "profile", help="fetch a running cluster's continuous-profiler state"
    )
    for sp in (status, kill, watch, profile):
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--admin-port", type=int, required=True)
    kill.add_argument("--node", type=int, required=True)
    profile.add_argument(
        "--collapsed",
        action="store_true",
        help="print collapsed flamegraph stacks instead of the JSON summary",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-poll every SECONDS until interrupted (default: one shot)",
    )
    watch.add_argument(
        "--prom", metavar="PATH", help="also write the merged Prometheus exposition"
    )
    watch.add_argument(
        "--epochs",
        action="store_true",
        help=(
            "also print the epoch ledger: accounting line, queue "
            "watermarks and per-epoch stranding attribution"
        ),
    )

    pm = sub.add_parser(
        "postmortem", help="reconstruct a timeline from flight snapshots"
    )
    pm.add_argument("directory", help="directory of flight-*.jsonl snapshots")
    pm.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    pm.add_argument(
        "--limit", type=int, default=40, help="max detections listed (default 40)"
    )

    return parser


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
async def _run_cluster(args) -> dict:
    from ..load import LoadSpec
    from ..monitor.spec import SLOSpec
    from .cluster import ClusterSpec, LocalCluster

    slo = SLOSpec(
        detection_latency_p99=args.slo_latency_p99,
        repair_duration=args.slo_repair_duration,
        outbox_depth=args.slo_outbox_depth,
        stranded_epoch_rate=args.slo_stranded_rate,
    )
    load_spec = None
    if args.load is not None:
        load_spec = LoadSpec(
            mode=args.load,
            rate=args.load_rate,
            arrival=args.load_arrival,
            users=args.load_users,
            think_time=args.load_think,
            total_offers=args.load_offers,
            zipf_s=args.load_zipf,
            dispatch=args.load_dispatch,
            policy=args.load_policy,
            max_outstanding=args.load_max_outstanding,
            pending_timeout=args.load_pending_timeout,
        )
    spec = ClusterSpec(
        nodes=args.nodes,
        degree=args.degree,
        seed=args.seed,
        transport=args.transport,
        epochs=args.epochs,
        sync_prob=args.sync_prob,
        interval_spacing=args.interval_spacing,
        admin_port=args.admin_port,
        flight_dir=args.flight_dir,
        flight_capacity=args.flight_capacity,
        slo=slo if slo.enabled else None,
        sample_rate=args.sample_rate,
        span_capacity=args.span_capacity,
        profile=args.profile,
        profile_interval=args.profile_interval,
        load=load_spec,
    )
    cluster = LocalCluster(spec)
    summary: dict = {"spec": {"nodes": spec.nodes, "degree": spec.degree,
                              "seed": spec.seed, "transport": spec.transport}}
    try:
        await cluster.start()
        await cluster.run(
            duration=args.duration,
            # With a load session, "done" is the session draining (every
            # offer issued and resolved), not a fixed detection count.
            until_detections=None if load_spec else args.until_detections,
            until_load_drained=load_spec is not None,
            timeout=args.timeout,
        )
        summary["detections_before_kill"] = len(cluster.detections)

        if args.kill_node is not None:
            killed = args.kill_node
            if killed not in cluster.runtimes:
                raise SystemExit(f"--kill-node: unknown node {killed}")
            await cluster.run(
                until_detections=args.kill_after_detections, timeout=args.timeout
            )
            before = len(cluster.detections)
            cluster.kill_node(killed)
            deadline = cluster.clock.now + args.timeout
            # Wait for a repair plan against the killed node, then for a
            # detection announced *after* the kill that excludes it.
            while killed not in cluster.coordinator.plans:
                if cluster.clock.now > deadline:
                    raise TimeoutError(f"no repair of node {killed} within timeout")
                await asyncio.sleep(0.01)
            while True:
                fresh = cluster.detections[before:]
                if any(killed not in d.members for d in fresh):
                    break
                if cluster.clock.now > deadline:
                    raise TimeoutError(
                        f"no post-kill detection excluding node {killed} within timeout"
                    )
                await asyncio.sleep(0.01)
            summary["killed"] = killed
            summary["repaired"] = True
            summary["detections_after_kill"] = len(cluster.detections) - before
    finally:
        await cluster.stop()

    view = cluster.view()
    registry = view.registry
    frames = registry.get("repro_net_frames_total")
    summary.update(
        detections=len(cluster.detections),
        solutions=[sorted(d.members) for d in cluster.detections[:16]],
        frames_total=int(sum(frames.values())) if frames else 0,
        reconnects=int(sum(registry.get("repro_net_reconnects_total").values()))
        if registry.get("repro_net_reconnects_total")
        else 0,
        false_suspicions=len(cluster.log.of_kind("false_suspicion")),
        cross_node_alarms=len(view.cross_node_alarms()),
        stitched_hops=view.stitched_hops,
        alpha_by_level={
            str(level): round(value, 4)
            for level, value in sorted(view.alpha_by_level().items())
        },
        slo_breaches=len(cluster.log.of_kind("slo_breach")),
        uptime=round(cluster.clock.now, 3),
        wire=cluster.wire_summary(),
    )
    if cluster.load_session is not None:
        load_block = cluster.load_summary()
        if args.kill_node is None:
            # Fault-free runs must detect exactly what the centralized
            # replay of the admitted subset says — shedding included.
            load_block["reference_match"] = cluster.load_session.reference_match(
                cluster.detections
            )
        summary["load"] = load_block
    # Sampling accounting + per-alarm trace completeness, so a sampled
    # run can be asserted on ("the kill's alarm still explains down to
    # leaf intervals") without re-scraping.
    span_stats = [
        scope.telemetry.spans.stats()
        for _, scope in sorted(cluster.scopes.items())
    ]
    recorded = sum(s["recorded"] for s in span_stats)
    exported = sum(s["materialized"] for s in span_stats)
    summary["sample_rate"] = spec.sample_rate
    summary["spans_recorded"] = recorded
    summary["spans_exported"] = exported
    summary["sampled_fraction"] = (
        round(exported / recorded, 4) if recorded else 1.0
    )
    summary["alarm_leaf_intervals"] = [
        sum(1 for _, s in view.spans.walk(alarm) if s.name == "interval")
        for alarm in view.cross_node_alarms()[:16]
    ]
    if cluster.profiler is not None:
        summary["profiler"] = {
            "samples": cluster.profiler.samples,
            "unique_stacks": len(cluster.profiler.stacks),
            "interval": cluster.profiler.interval,
        }
    if args.flight_dir:
        summary["flight_snapshots"] = sum(
            len(recorder.snapshots)
            for recorder in cluster.flight_recorders.values()
        )

    if args.prom:
        from ..obs.export import prometheus_text

        with open(args.prom, "w", encoding="utf-8") as fp:
            fp.write(prometheus_text(registry))
    if args.jsonl:
        from ..obs.export import eventlog_to_jsonl

        eventlog_to_jsonl(cluster.log, args.jsonl)
    if args.chrome:
        from ..obs.export import write_chrome_trace

        write_chrome_trace(view.spans, args.chrome, time_base="wall")
    return summary


def _cmd_run(args) -> int:
    try:
        summary = asyncio.run(_run_cluster(args))
    except TimeoutError as exc:
        print(f"repro-cluster: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    print(text)
    return 0


# ----------------------------------------------------------------------
# admin clients
# ----------------------------------------------------------------------
async def _admin_request(host: str, port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _cmd_admin(args, request: dict) -> int:
    try:
        response = asyncio.run(_admin_request(args.host, args.admin_port, request))
    except (ConnectionError, OSError) as exc:
        print(f"repro-cluster: cannot reach admin endpoint: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


# ----------------------------------------------------------------------
# observability surfaces
# ----------------------------------------------------------------------
def _watch_once(args) -> int:
    from ..obs.cluster import ClusterScraper, TelemetryAggregator

    scraper = ClusterScraper(args.host, args.admin_port)
    try:
        scrape = scraper.scrape_sync()
    except (ConnectionError, OSError) as exc:
        print(f"repro-cluster: cannot reach admin endpoint: {exc}", file=sys.stderr)
        return 1
    view = TelemetryAggregator().fold(scrape)
    print(view.status_table())
    if getattr(args, "epochs", False):
        print()
        print(view.epoch_table())
    if args.prom:
        from ..obs.export import prometheus_text

        with open(args.prom, "w", encoding="utf-8") as fp:
            fp.write(prometheus_text(view.registry))
    return 0


def _cmd_watch(args) -> int:
    import time

    if args.interval is None:
        return _watch_once(args)
    try:
        while True:
            code = _watch_once(args)
            if code != 0:
                return code
            print()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_profile(args) -> int:
    try:
        response = asyncio.run(
            _admin_request(args.host, args.admin_port, {"cmd": "profile"})
        )
    except (ConnectionError, OSError) as exc:
        print(f"repro-cluster: cannot reach admin endpoint: {exc}", file=sys.stderr)
        return 1
    if not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True))
        return 1
    profile = response.get("profile")
    if profile is None:
        print(
            "repro-cluster: cluster is not profiling "
            f"(launch with --profile; available={response.get('available')})",
            file=sys.stderr,
        )
        return 1
    if args.collapsed:
        for stack, count in sorted(
            (profile.get("stacks") or {}).items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"{stack} {count}")
        return 0
    print(json.dumps({k: v for k, v in profile.items() if k != "stacks"},
                     indent=2, sort_keys=True))
    return 0


def _cmd_postmortem(args) -> int:
    from ..obs.flight import postmortem, render_postmortem

    try:
        report = postmortem(args.directory)
    except (OSError, ValueError) as exc:
        print(f"repro-cluster: cannot load snapshots: {exc}", file=sys.stderr)
        return 1
    if not report["snapshots"]:
        print(
            f"repro-cluster: no flight-*.jsonl snapshots in {args.directory}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_postmortem(report, limit=args.limit))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "status":
        return _cmd_admin(args, {"cmd": "status"})
    if args.command == "kill-node":
        return _cmd_admin(args, {"cmd": "kill-node", "node": args.node})
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "postmortem":
        return _cmd_postmortem(args)
    raise SystemExit(2)


if __name__ == "__main__":
    raise SystemExit(main())
