"""``repro-cluster`` — run, poke and observe localhost detection clusters.

Subcommands:

* ``run --spec FILE`` — build the cluster a JSON
  :class:`~repro.net.cluster.ClusterSpec` describes, launch every node
  on its own TCP (or loopback) transport inside one process, replay a
  simulator-derived interval script (or drive the spec's load plane)
  and wait for live ``Definitely(Φ)`` detections.  With ``--kill-node``
  it additionally crash-stops a node mid-run and only exits 0 if the
  tree repaired itself *and* detection continued over the survivors —
  the paper's fault-tolerance claim, demonstrated on real sockets.
  Flags only control the run and its exports; everything about the
  cluster is in the file (``examples/clusters/`` holds CI's scenarios).
  A file that cannot be read or loaded exits 2 with one line saying
  which key is wrong.
* ``status`` — query a running cluster's admin endpoint.
* ``kill-node`` — crash a node in a running cluster via its admin
  endpoint.
* ``watch`` — scrape a running cluster's per-node telemetry islands
  through the admin endpoint, merge + trace-stitch them
  (:mod:`repro.obs.cluster`) and print the live cluster status table
  (per-node alarms/reports, realized α by level, reconnects, outbox
  depths); ``--interval`` re-polls until interrupted.
* ``postmortem EVENTS`` — reconstruct the crash → repair → recovery
  timeline from the event dump ``run --jsonl`` wrote
  (:func:`repro.obs.export.postmortem`).

Exports mirror ``repro-trace``: ``--prom`` / ``--jsonl`` / ``--chrome``
write the *aggregated* cluster telemetry — per-node registries merged,
span trees stitched across TCP hops — so all ``repro_net_*`` socket
metrics appear next to the ordinary detection metrics and alarm traces
read end-to-end.  The run summary's ``events_dropped`` counts the
events the cluster log's ring evicted before the dump: non-zero means
the ``--jsonl`` file (and so a postmortem) misses the run's start.
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
    run.add_argument(
        "--spec",
        metavar="FILE",
        required=True,
        help="the cluster as a JSON object of ClusterSpec fields, with nested "
        "heartbeat / load / slo objects; a missing key takes its default",
    )
    stop = run.add_argument_group("stopping conditions")
    stop.add_argument(
        "--duration", type=float, default=None, help="run for this many wall seconds"
    )
    stop.add_argument(
        "--until-detections",
        type=int,
        default=1,
        help="wait for at least this many detections (default 1; "
        "a spec with a load plane waits for the session to drain instead)",
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
    out = run.add_argument_group("exports")
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
    for sp in (status, kill, watch):
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--admin-port", type=int, required=True)
    kill.add_argument("--node", type=int, required=True)
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
        "postmortem", help="reconstruct a timeline from a run's event dump"
    )
    pm.add_argument("events", help="the JSON-lines file `run --jsonl` wrote")
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
def _load_spec(path: str):
    """The :class:`~repro.net.cluster.ClusterSpec` in the JSON file
    *path*; raises :class:`ValueError` saying what is wrong with it."""
    from .cluster import ClusterSpec

    try:
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return ClusterSpec.from_dict(data)


async def _run_cluster(args, spec) -> dict:
    from .cluster import LocalCluster

    cluster = LocalCluster(spec)
    summary: dict = {"spec": spec.to_dict()}
    try:
        await cluster.start()
        await cluster.run(
            duration=args.duration,
            # With a load session, "done" is the session draining (every
            # offer issued and resolved), not a fixed detection count.
            until_detections=None if spec.load else args.until_detections,
            until_load_drained=spec.load is not None,
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
            while not any(killed not in d.members for d in cluster.detections[before:]):
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

    def total(name: str) -> int:
        vec = registry.get(name)
        return int(sum(vec.values())) if vec else 0

    summary.update(
        detections=len(cluster.detections),
        solutions=[sorted(d.members) for d in cluster.detections[:16]],
        frames_total=total("repro_net_frames_total"),
        reconnects=total("repro_net_reconnects_total"),
        false_suspicions=len(cluster.log.of_kind("false_suspicion")),
        cross_node_alarms=len(view.cross_node_alarms()),
        stitched_hops=view.stitched_hops,
        alpha_by_level={
            str(level): round(value, 4)
            for level, value in sorted(view.alpha_by_level().items())
        },
        slo_breaches=len(cluster.log.of_kind("slo_breach")),
        events_dropped=cluster.log.dropped,
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
    # Per-alarm trace completeness, so a run can be asserted on ("the
    # kill's alarm still explains down to leaf intervals") without
    # re-scraping.
    summary["spans_recorded"] = sum(
        scope.telemetry.spans.stats()["recorded"] for scope in cluster.scopes.values()
    )
    summary["alarm_leaf_intervals"] = [
        sum(1 for _, s in view.spans.walk(alarm) if s.name == "interval")
        for alarm in view.cross_node_alarms()[:16]
    ]

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
        spec = _load_spec(args.spec)
    except ValueError as exc:
        print(f"repro-cluster: --spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        summary = asyncio.run(_run_cluster(args, spec))
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


def _cmd_postmortem(args) -> int:
    from ..obs.export import postmortem, render_postmortem

    try:
        report = postmortem(args.events)
    except OSError as exc:
        print(f"repro-cluster: {args.events}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"repro-cluster: {exc}", file=sys.stderr)
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
    if args.command == "postmortem":
        return _cmd_postmortem(args)
    raise SystemExit(2)


if __name__ == "__main__":
    raise SystemExit(main())
