#!/usr/bin/env python
"""Trace tooling: capture, visualize, archive, and replay executions.

A monitoring deployment produces executions worth keeping: this example
captures a live run, draws its timing diagram the way the paper draws
Figures 1–3, saves it to JSON, reloads it, and replays it offline
through three different detectors — demonstrating that the whole
detection stack is a pure function of the recorded ``(E, ≺)``.  It then
walks the run's built-in telemetry (``repro.obs``): the causal span
tree explaining each alarm down to the concrete leaf intervals, the
detection-latency percentiles, and the Perfetto trace export.

Run:  python examples/trace_tools.py
"""

import tempfile
from pathlib import Path

from repro import EpochConfig, SpanningTree, run_hierarchical
from repro.analysis import render_timeline
from repro.detect import RepeatedDetectionCore, replay_centralized
from repro.detect.offline import replay_hierarchical
from repro.obs import write_chrome_trace
from repro.sim import load_trace, save_trace
from repro.workload import figure2_execution


def main() -> None:
    # ------------------------------------------------------------------
    print("1. The paper's Figure 2 execution, as a timing diagram")
    print("   (#: predicate true; i/s/r: internal/send/recv, uppercase")
    print("   while the predicate holds):")
    print()
    trace = figure2_execution().trace
    print(render_timeline(trace))
    print()

    # ------------------------------------------------------------------
    print("2. Capture a live 7-node run and archive it")
    result = run_hierarchical(
        SpanningTree.regular(2, 3), seed=3,
        config=EpochConfig(epochs=4, sync_prob=0.8),
    )
    live = result.trace
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        save_trace(live, path)
        print(f"   saved {live.event_count()} events "
              f"({path.stat().st_size} bytes JSON)")
        reloaded = load_trace(path)
    print(f"   reloaded: {reloaded.event_count()} events, "
          f"{sum(len(v) for v in reloaded.all_intervals().values())} intervals")
    print()

    # ------------------------------------------------------------------
    print("3. Replay the archived trace through every detector")
    tree = SpanningTree.regular(2, 3)
    centralized = replay_centralized(reloaded, sink=0)
    hierarchical = replay_hierarchical(reloaded, tree)[0]

    one_shot = RepeatedDetectionCore(range(reloaded.n), repeated=False)
    first = []
    for interval in reloaded.intervals_in_completion_order():
        first.extend(one_shot.offer(interval.owner, interval))

    print(f"   live hierarchical run    : {len(result.detections)} occurrences")
    print(f"   centralized replay [12]  : {len(centralized)} occurrences")
    print(f"   hierarchical replay      : {len(hierarchical)} occurrences")
    print(f"   one-shot replay [7]      : "
          f"{len(first)} (first only, then hangs)")
    assert len(centralized) == len(hierarchical) == len(result.detections)
    assert [s.heads for s in first] == [s.heads for s in centralized[:1]]
    assert one_shot.halted == bool(first)
    print()
    print("Replays agree with the live run — detection is a pure function")
    print("of the recorded causality, so archived traces are full repro-")
    print("duction artifacts.")
    print()

    # ------------------------------------------------------------------
    print("4. Explain the first alarm with the run's causal span trace")
    telemetry = result.sim.telemetry
    first_alarm = telemetry.spans.alarms()[0]
    print()
    print(telemetry.spans.render_tree(first_alarm))
    print()
    rendered = " ".join(
        f"p{q:g}={value:.2f}" for q, value in telemetry.latency_percentiles()
    )
    print(f"   detection latency over {telemetry.detection_latency.count} "
          f"alarms: {rendered} (sim time units)")
    with tempfile.TemporaryDirectory() as tmp:
        perfetto = Path(tmp) / "trace.json"
        count = write_chrome_trace(
            telemetry.spans, perfetto,
            levels={pid: tree.level(pid) for pid in tree.nodes},
        )
        print(f"   Perfetto/chrome://tracing export: {count} trace events "
              f"({perfetto.stat().st_size} bytes)")
    print("   (the repro-trace CLI produces the same exports from the")
    print("    command line: repro-trace --nodes 20 --chrome trace.json)")


if __name__ == "__main__":
    main()
