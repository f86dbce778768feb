"""One repetition of ``sim85_paper``: the regular d=4, h=4 tree in
virtual time, assembled from the public pieces the way
``repro.experiments.harness.run_hierarchical`` does, with no faults.

Fixed work, not fixed time: the epoch count is a function of
``--seconds`` alone, so every count repeats exactly for a seed.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional

from . import trace
from .probes import (
    Calibrator,
    LayerTimes,
    core_totals,
    detect_metrics,
    head_matrices,
    pct,
    ratio,
    rss_mb,
)
from .workloads import Sim

#: same one-hop delay bounds as the experiment harness
DELAY_LOW, DELAY_HIGH = 0.5, 1.5
#: the run is paused this often to sample the box's speed
SLICES = 30
KERNELS_PER_SLICE = 5
#: ``load``, ``net`` and the repair path are bypassed entirely: they read 0
BYPASSED = (
    "load.intake_self_us_per_offer",
    "load.generator_lag_p90_ms",
    "load.shed_frac",
    "load.stranded_offer_frac",
    "load.outstanding_p90",
    "net.codec.encode_self_us_per_frame",
    "net.codec.decode_self_us_per_frame",
    "net.codec.bytes_per_report_frame",
    "net.transport.send_self_us_per_frame",
    "net.transport.frames_per_solved_epoch",
    "net.transport.ack_frames_per_solved_epoch",
    "net.transport.heartbeat_bytes_frac",
    "net.transport.frames_per_flush",
    "net.transport.hop_wait_p50_ms",
    "net.transport.hop_wait_p90_ms",
    "net.transport.outbox_drops",
    "net.transport.reconnects",
    "net.runtime.self_us_per_msg",
    "fault.suspect_gap_ms",
    "topology.repair_apply_ms",
    "fault.first_alarm_after_repair_ms",
    "fault.leaf_gap_ms",
    "fault.internal_gap_ms",
    "fault.repair_gap_ms",
    "fault.false_suspicions",
)


def run(
    wl: Sim, seed: int, seconds: float, tracer: Optional[trace.Tracer], spawned_at: float
) -> dict:
    from repro.detect.centralized import CentralizedSinkCore
    from repro.detect.roles import HierarchicalRole
    from repro.load import solution_keyset
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network, uniform_delay
    from repro.sim.trace import ExecutionTrace
    from repro.topology.spanning_tree import SpanningTree
    from repro.workload.generator import EpochConfig, EpochProcess, EpochWorkload

    epochs = max(8, round(wl.epochs_per_second * seconds))
    if tracer is not None:
        trace.install_sim(tracer)
    tree = SpanningTree.regular(wl.degree, wl.height)
    sim = Simulator(seed=seed)
    network = Network(
        sim, tree.as_graph(), uniform_delay(DELAY_LOW, DELAY_HIGH), wire_encoding=True
    )
    recorded = ExecutionTrace(tree.n)
    with head_matrices() as matrices:
        roles = {
            pid: HierarchicalRole(
                parent=tree.parent_of(pid), children=tree.children(pid), level=tree.level(pid)
            )
            for pid in tree.nodes
        }
        processes = {
            pid: EpochProcess(pid, sim, network, recorded, roles[pid], tree) for pid in tree.nodes
        }
    workload = EpochWorkload(
        sim, processes, tree, EpochConfig(epochs=epochs, sync_prob=wl.sync_prob), max_delay=DELAY_HIGH
    )
    workload.install()
    for process in processes.values():
        process.start()
    setup_s = time.monotonic() - spawned_at
    gc.collect()
    gc.freeze()

    root_role = roles[tree.root]
    calibrator = Calibrator()
    rss0, gc0 = rss_mb(), gc.get_stats()[2]["collections"]
    # The run is cut into slices only to sample the box's speed between
    # them (kernel time is excluded from the run's wall and CPU time).
    wall_ns = cpu_ns = 0
    marks = [(0, 0, 0)]  # (wall ns, cpu ns, root detections) after each third
    lo_ns = time.perf_counter_ns()
    for piece in range(1, SLICES + 1):
        began = time.perf_counter_ns(), time.process_time_ns()
        sim.run(until=workload.end_time * piece / SLICES)
        wall_ns += time.perf_counter_ns() - began[0]
        cpu_ns += time.process_time_ns() - began[1]
        for _ in range(KERNELS_PER_SLICE):
            calibrator.sample(piece)
        if piece % (SLICES // 3) == 0:
            marks.append((wall_ns, cpu_ns, len(root_role.detections)))
    hi_ns = time.perf_counter_ns()
    rss1, gc1 = rss_mb(), gc.get_stats()[2]["collections"]
    speed = calibrator.factor(0, SLICES + 1)
    if tracer is not None:
        tracer.uninstall()

    # ---- post-processing ----------------------------------------------
    detections = root_role.detections
    solved = len(detections)
    wall, cpu = wall_ns / 1e9, cpu_ns / 1e9
    latencies_ms = [
        (
            record.time
            - max(recorded.interval_close_time(leaf) for leaf in record.solution.concrete_intervals())
        )
        * 1e3
        for record in detections
    ]
    reports = network.sent[("control", "IntervalReport")]
    central_msgs = sum(len(p.local_intervals) * tree.depth(pid) for pid, p in processes.items())
    thirds = [ratio(b[1] - a[1], b[2] - a[2]) for a, b in zip(marks, marks[1:])]

    # The oracle: the centralized sink [12] replaying the same trace.
    sink = CentralizedSinkCore(tree.root, tree.nodes)
    oracle: List = []
    for interval in recorded.intervals_in_completion_order():
        oracle.extend(sink.offer(interval.owner, interval))
    live_sets = [solution_keyset(r.solution) for r in sorted(detections, key=lambda r: r.solution.index)]
    oracle_sets = [solution_keyset(s) for s in sorted(oracle, key=lambda s: s.index)]

    metrics: Dict[str, float] = {
        **dict.fromkeys(BYPASSED, 0.0),
        "setup_s": setup_s,
        # pure CPU: capacity and cost follow the box's speed (see
        # Calibrator); latencies are virtual time and do not
        "solved_epochs_per_s": ratio(solved, wall) / speed,
        "alarm_latency_p50_ms": pct(latencies_ms, 50),
        "load.alarm_latency_p90_ms": pct(latencies_ms, 90),
        "cpu_ms_per_solved_epoch": ratio(cpu * 1e3, solved) * speed,
        "goodput_frac": ratio(solved, len(oracle)),
        "wire_bytes_per_solved_epoch": ratio(8 * network.bandwidth_entries("control"), solved),
        "ctrl_msgs_per_solved_epoch": ratio(reports, solved),
        "msg_ratio_vs_central": ratio(reports, central_msgs),
        "peak_rss_mb": rss1,
        "load.alarm_latency_p99_ms": pct(latencies_ms, 99),
        "sim.kernel.events_per_solved_epoch": ratio(sim.events_executed, solved),
        "obs.spans_recorded_per_offer": ratio(
            sim.telemetry.spans.stats()["recorded"],
            sum(len(p.local_intervals) for p in processes.values()),
        ),
        "proc.loop_busy_frac": ratio(cpu, wall),
        "proc.cpu_drift_frac": ratio(thirds[2], thirds[0]),
        "proc.rss_mb_per_1k_epochs": ratio((rss1 - rss0) * 1e3, solved),
        "proc.gc_gen2_collections": float(gc1 - gc0),
        "env.kernel_us": calibrator.kernel_us(0, SLICES + 1),
    }
    metrics.update(
        detect_metrics(core_totals(roles, tree.root, matrices), reports, solved, roles)
    )
    result = {
        "metrics": metrics,
        "samples": {"alarm_latency": len(latencies_ms)},
        "checks": {"reference": live_sets == oracle_sets, "window_sampled": solved > 0},
        "attempted": epochs * tree.n,
        "window_s": wall,
    }
    if tracer is not None:
        times = LayerTimes(tracer, lo_ns, hi_ns, cpu)
        durations = {
            **times.detect_durations(),
            "sim.kernel.self_us_per_event": times.us_per_call("Simulator.step"),
            "sim.network.self_us_per_msg": times.us_per_call("Network.send"),
            "obs.self_us_per_offer": ratio(
                times.layer_ns("obs") / 1e3, times.calls("HierarchicalRole.on_local_interval")
            ),
        }
        metrics.update({name: value * speed for name, value in durations.items()})
        metrics["sim.workload_self_frac"] = ratio(times.layer_ns("workload"), times.cpu_ns)
        times.close(result, lo_ns, hi_ns)
    return result
