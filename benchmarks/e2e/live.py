"""One repetition of a tcp7 workload: a live 7-node TCP cluster in this
process, driven by the in-process :class:`~repro.load.LoadSession`.

Timeline (cluster clock)::

    set-up | start_delay | warm-up (discarded) | measured window | grace | quiesce

Everything rate-like is computed over the measured window only.  The
window's edges are the clock readings of the sampling callbacks
themselves, so CPU, counters and detections always cover the same
interval even when a saturated loop fires a callback late.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from typing import Dict, List, Optional, Tuple

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
from .workloads import WARMUP_FRAC, Live

#: an offer is good when the detection covering it is announced this
#: soon after the scheduled due time of that detection's last-due offer
GOOD_WITHIN_S = 0.100
#: after the window: let detections for its last offers land …
GRACE_S = 0.15
#: … then stop the generator and wait for the tree to fall silent
QUIESCE_TIMEOUT_S = 3.0
#: period of the ``session.outstanding`` sampler
SAMPLE_S = 0.02
#: layers a live cluster never enters read 0
BYPASSED = (
    "sim.kernel.events_per_solved_epoch",
    "sim.kernel.self_us_per_event",
    "sim.network.self_us_per_msg",
    "sim.workload_self_frac",
)


class _Snapshot:
    """Every counter the window metrics need, read at one instant."""

    def __init__(self, cluster, matrices) -> None:
        self.t = cluster.clock.now
        self.perf_ns = time.perf_counter_ns()
        self.cpu = time.process_time()
        self.rss = rss_mb()
        self.gc2 = gc.get_stats()[2]["collections"]
        self.bytes: Dict[str, float] = {}
        self.frames_out: Dict[str, float] = {}
        self.frames_in = 0.0
        self.acks = self.reports = self.drops = self.reconnects = 0.0
        for scope in cluster.scopes.values():
            get = scope.telemetry.registry.get
            for (_, kind), value in (get("repro_net_bytes_total") or {}).items():
                self.bytes[kind] = self.bytes.get(kind, 0) + value
            for (_, direction, kind), value in (get("repro_net_frames_total") or {}).items():
                if direction == "out":
                    self.frames_out[kind] = self.frames_out.get(kind, 0) + value
                else:
                    self.frames_in += value
            self.acks += sum((get("repro_net_acks_total") or {}).values())
            self.reports += sum((get("repro_reports_total") or {}).values())
            self.drops += sum((get("repro_net_outbox_dropped_total") or {}).values())
            self.reconnects += sum((get("repro_net_reconnects_total") or {}).values())
        self.cores = core_totals(cluster.roles, cluster.tree.root, matrices)
        session = cluster.load_session
        self.counts = dict(session.counts)
        self.admitted = dict(session.admission.admitted)


def _sub(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def run(
    workload: Live,
    seed: int,
    seconds: float,
    tracer: Optional[trace.Tracer],
    spawned_at: float,
) -> dict:
    return asyncio.run(_run(workload, seed, seconds, tracer, spawned_at))


async def _run(wl: Live, seed: int, seconds: float, tracer, spawned_at: float) -> dict:
    from repro.load import LoadSpec
    from repro.load.generators import OpenLoopGenerator
    from repro.net.cluster import ClusterSpec, LocalCluster

    window = seconds * wl.window_scale
    warmup = max(1.0, WARMUP_FRAC * seconds)
    planned = wl.rate * (warmup + window)
    load = LoadSpec(
        mode="open",
        arrival="poisson",
        policy="shed",
        pending_timeout=2.0,
        rate=wl.rate,
        max_outstanding=wl.max_outstanding,
        # the Poisson plan must outlast the window on every seed
        total_offers=math.ceil(planned + 4 * math.sqrt(planned) + 16),
    )
    spec = ClusterSpec(
        nodes=7, degree=2, transport="tcp", wire="binary", sync_prob=1.0, seed=seed, load=load
    )
    # the tree as built: repairs rewire the cluster's own copy
    tree = spec.tree()
    root, leaves = tree.root, set(tree.leaves())
    depth = {pid: tree.depth(pid) for pid in tree.nodes}

    if tracer is not None:
        trace.install_live(tracer)
    # The session computes its schedule origin inside cluster.start()
    # and keeps it private; due times need it, so note it as it passes
    # through the generator's public start().
    origin: List[float] = []
    generator_start = OpenLoopGenerator.start

    def noting_start(self, at=0.0):
        origin.append(at)
        generator_start(self, at)

    OpenLoopGenerator.start = noting_start
    try:
        with head_matrices() as matrices:
            cluster = LocalCluster(spec)
            await cluster.start()
    finally:
        OpenLoopGenerator.start = generator_start
    base = origin[0]
    session = cluster.load_session
    clock = cluster.clock
    due_of = _note_due_times(session, base)
    if tracer is not None:
        trace.attach_live(tracer, cluster, base)
    setup_s = time.monotonic() - spawned_at
    gc.collect()
    gc.freeze()

    w0, w1 = base + warmup, base + warmup + window
    snaps: List[_Snapshot] = []
    for i in range(4):
        clock.schedule_at(w0 + window * i / 3, lambda: snaps.append(_Snapshot(cluster, matrices)))

    sampling = [True]

    def every(period: float, action) -> None:
        def tick() -> None:
            if sampling[0]:
                action()
                clock.schedule(period, tick)

        clock.schedule_at(w0, tick)

    outstanding: List[Tuple[float, int]] = []
    calibrator = Calibrator()
    every(SAMPLE_S, lambda: outstanding.append((clock.now, session.outstanding)))
    every(calibrator.PERIOD_S, lambda: calibrator.sample(clock.now))

    killed_at: Dict[int, float] = {}

    def kill(pid: int) -> None:
        killed_at[pid] = clock.now
        cluster.kill_node(pid)

    for frac, pid in wl.kills:
        clock.schedule_at(w0 + frac * window, lambda p=pid: kill(p))

    events: Dict[str, list] = {"suspect": [], "repair_applied": [], "false_suspicion": []}
    for kind, seen in events.items():
        cluster.log.subscribe(kind, seen.append)

    await asyncio.sleep(w1 + GRACE_S - clock.now)
    session.stop()
    sampling[0] = False
    await _quiesce(cluster)
    spans_recorded = sum(s.telemetry.spans.stats()["recorded"] for s in cluster.scopes.values())
    await cluster.stop()
    if tracer is not None:
        tracer.uninstall()

    # ---- everything below is post-processing, outside every rate -------
    first, last = snaps[0], snaps[-1]
    lo, hi = first.t, last.t
    offers_due = sum(1 for offset, _ in session.generator.plan() if lo <= base + offset < hi)
    latencies_ms: List[float] = []
    good = 0
    solved = 0
    for record in cluster.detections:
        if record.detector == root and lo <= record.time < hi:
            solved += 1
        dues = [
            due_of[(leaf.owner, leaf.seq)]
            for head in record.solution.heads.values()
            for leaf in head.concrete_leaves()
        ]
        last_due = max(dues)
        if record.time - last_due <= GOOD_WITHIN_S:
            good += sum(1 for due in dues if lo <= due < hi)
        if record.detector == root and lo <= last_due < hi:
            latencies_ms.append((record.time - last_due) * 1e3)

    wall = hi - lo
    cpu = last.cpu - first.cpu - calibrator.cpu_s(lo, hi)
    sent = _sub(last.bytes, first.bytes)
    frames_out = _sub(last.frames_out, first.frames_out)
    cores = _sub(last.cores, first.cores)
    counts = _sub(last.counts, first.counts)
    admitted = _sub(last.admitted, first.admitted)
    reports = last.reports - first.reports
    acks = last.acks - first.acks
    central_msgs = sum(n * depth[pid] for pid, n in admitted.items())
    thirds = [
        ratio(b.cpu - a.cpu, _root_detections(cluster, root, a.t, b.t))
        for a, b in zip(snaps, snaps[1:])
    ]

    # Durations measured in the window are reported at reference speed
    # (see Calibrator); where the loop is saturated, so is capacity.
    speed = calibrator.factor(lo, hi)
    capacity = 1.0 / speed if wl.saturated else 1.0
    metrics: Dict[str, float] = {
        **dict.fromkeys(BYPASSED, 0.0),
        "setup_s": setup_s,
        "solved_epochs_per_s": ratio(solved, wall) * capacity,
        "alarm_latency_p50_ms": pct(latencies_ms, 50) * speed,
        "load.alarm_latency_p90_ms": pct(latencies_ms, 90) * speed,
        "cpu_ms_per_solved_epoch": ratio(cpu * 1e3, solved) * speed,
        "goodput_frac": min(1.0, ratio(good, offers_due) * capacity),
        "wire_bytes_per_solved_epoch": ratio(sum(sent.values()), solved),
        "ctrl_msgs_per_solved_epoch": ratio(reports, solved),
        "msg_ratio_vs_central": ratio(reports, central_msgs),
        "peak_rss_mb": last.rss,
        "load.shed_frac": ratio(counts["shed"], counts["offered"]),
        "load.stranded_offer_frac": ratio(
            session.counts["admitted"] - session.counts["completed"], session.counts["admitted"]
        ),
        "load.outstanding_p90": pct([n for t, n in outstanding if lo <= t < hi], 90),
        "load.alarm_latency_p99_ms": pct(latencies_ms, 99) * speed,
        "net.codec.bytes_per_report_frame": ratio(
            sent.get("IntervalReport", 0), frames_out.get("IntervalReport", 0)
        ),
        "net.transport.frames_per_solved_epoch": ratio(sum(frames_out.values()), solved),
        "net.transport.ack_frames_per_solved_epoch": ratio(acks, solved),
        "net.transport.heartbeat_bytes_frac": ratio(sent.get("Heartbeat", 0), sum(sent.values())),
        "net.transport.outbox_drops": last.drops - first.drops,
        "net.transport.reconnects": last.reconnects - first.reconnects,
        "fault.false_suspicions": float(len(events["false_suspicion"])),
        "obs.spans_recorded_per_offer": ratio(spans_recorded, session.counts["offered"]),
        "proc.loop_busy_frac": ratio(cpu, wall),
        "proc.cpu_drift_frac": ratio(thirds[2], thirds[0]),
        "proc.rss_mb_per_1k_epochs": ratio((last.rss - first.rss) * 1e3, solved),
        "proc.gc_gen2_collections": float(last.gc2 - first.gc2),
        "env.kernel_us": calibrator.kernel_us(lo, hi),
    }
    metrics.update(detect_metrics(cores, reports, solved, cluster.roles))
    repairs = _repair_metrics(cluster, root, killed_at, events, leaves)
    metrics.update(repairs)

    checks = {
        "accounting": session.counts["offered"]
        == session.counts["admitted"] + session.counts["shed"],
        "reference": _reference_ok(cluster, session, bool(wl.kills)),
        "repaired": all(pid in cluster.coordinator.durations for _, pid in wl.kills)
        and (not wl.kills or repairs["fault.repair_gap_ms"] > 0),
        "window_sampled": len(snaps) == 4 and solved > 0,
    }
    result = {
        "metrics": metrics,
        "samples": {"alarm_latency": len(latencies_ms), "outstanding": len(outstanding)},
        "checks": checks,
        "attempted": offers_due,
        "window_s": wall,
    }
    if tracer is not None:
        _traced_metrics(tracer, result, first, last, cpu, frames_out, acks, speed)
    return result


def _note_due_times(session, base: float) -> Dict[Tuple[int, int], float]:
    """``interval key -> scheduled due time of the offer that carried
    it``, filled as offers are admitted.

    The session maps keys to offers privately, so two pass-through
    callbacks on its public hooks note the pairing: the generator hands
    every offer to ``intake`` and, in the same call stack, an admitted
    offer's interval goes out through ``submit``."""
    plan = session.generator.plan()
    due_of: Dict[Tuple[int, int], float] = {}
    current = [0.0]
    intake, submit = session.generator.intake, session.submit

    def noting_intake(offer) -> None:
        current[0] = base + plan[offer.index][0]
        intake(offer)

    def noting_submit(pid, interval) -> None:
        due_of[(interval.owner, interval.seq)] = current[0]
        submit(pid, interval)

    session.generator.intake = noting_intake
    session.submit = noting_submit
    return due_of


def _root_detections(cluster, root: int, lo: float, hi: float) -> int:
    return sum(1 for r in cluster.detections if r.detector == root and lo <= r.time < hi)


async def _quiesce(cluster) -> None:
    """Wait until every live transport has flushed and no detection has
    arrived for 100 ms (bounded: a stuck link must not hang the run)."""

    async def settle() -> None:
        while True:
            seen = len(cluster.detections)
            for runtime in cluster.runtimes.values():
                if runtime.alive:
                    await runtime.transport.drain()
            await asyncio.sleep(0.1)
            if len(cluster.detections) == seen:
                return

    try:
        await asyncio.wait_for(settle(), QUIESCE_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass  # the reference check below decides whether that mattered


def _reference_ok(cluster, session, crashed: bool) -> bool:
    """Safety against the reference oracle.

    Fault-free: the live detections must equal the centralized replay
    [12] of exactly the admitted offers.  With crashes the replay stops
    at the first kill (it waits for the dead node forever), so
    full-membership detections must be a prefix of it, and every later,
    degraded detection is checked directly against the definition: its
    concrete intervals pairwise overlap (Eq. 2) and no interval is
    consumed twice by one detector."""
    from repro.intervals import overlap

    detections = cluster.detections
    if not crashed:
        return session.reference_match(detections)
    everyone = len(session.pids)
    full = [d for d in detections if len(d.members) == everyone]
    if not session.reference_match(full, allow_prefix=True):
        return False
    consumed = set()
    for record in detections:
        if len(record.members) == everyone:
            continue
        leaves = record.solution.concrete_intervals()
        keys = {(record.detector, leaf.owner, leaf.seq) for leaf in leaves}
        if not overlap(leaves) or keys & consumed:
            return False
        consumed |= keys
    return True


def _repair_metrics(cluster, root, killed_at, events, leaves) -> Dict[str, float]:
    """Kill → suspicion → repair applied → first root alarm without the
    victim, per kill; all 0 on a workload that kills nobody."""
    names = (
        "fault.suspect_gap_ms", "topology.repair_apply_ms",
        "fault.first_alarm_after_repair_ms", "fault.leaf_gap_ms",
        "fault.internal_gap_ms", "fault.repair_gap_ms",
    )
    out = dict.fromkeys(names, 0.0)
    gaps, suspects, applies, firsts = [], [], [], []
    for pid, at in killed_at.items():
        suspected = [r.time for r in events["suspect"] if r.get("peer") == pid]
        applied = [r.time for r in events["repair_applied"] if r.get("failed") == pid]
        alarm = next(
            (
                r.time
                for r in cluster.detections
                if r.detector == root and r.time >= at and pid not in r.members
            ),
            None,
        )
        if not (suspected and applied and alarm is not None):
            return out  # "repaired" check fails on the zero gap
        gap = (alarm - at) * 1e3
        gaps.append(gap)
        suspects.append((suspected[0] - at) * 1e3)
        applies.append(cluster.coordinator.durations[pid] * 1e3)
        firsts.append((alarm - applied[0]) * 1e3)
        out["fault.leaf_gap_ms" if pid in leaves else "fault.internal_gap_ms"] = gap
    if gaps:
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        out["fault.repair_gap_ms"] = mean(gaps)
        out["fault.suspect_gap_ms"] = mean(suspects)
        out["topology.repair_apply_ms"] = mean(applies)
        out["fault.first_alarm_after_repair_ms"] = mean(firsts)
    return out


def _traced_metrics(tracer, result, first, last, cpu, frames_out, acks, speed) -> None:
    """Per-layer timings of the traced window (self time per unit of
    that layer's work, at reference speed like every window duration)."""
    lo_ns, hi_ns = first.perf_ns, last.perf_ns
    times = LayerTimes(tracer, lo_ns, hi_ns, cpu)
    offers = times.calls("LoadSession.intake")
    lags = [lag * 1e3 for at, lag in tracer.lags if first.t <= at < last.t]
    waits = [w / 1e6 for at, w in tracer.hop_waits if lo_ns <= at < hi_ns]
    writes = sum(1 for at in tracer.socket_writes if lo_ns <= at < hi_ns)
    decoded = (last.frames_in - first.frames_in) + acks
    data_writes = writes - acks - (last.reconnects - first.reconnects)
    messages = ("NodeRuntime.offer_local", "NodeRuntime.on_message")
    durations = {
        **times.detect_durations(),
        "load.intake_self_us_per_offer": times.us_per_call("LoadSession.intake"),
        "load.generator_lag_p90_ms": pct(lags, 90),
        "net.codec.encode_self_us_per_frame": times.us_per_call("FrameCodec.encode"),
        "net.codec.decode_self_us_per_frame": times.us_per_call(
            "FrameCodec.feed_meta", calls=decoded
        ),
        "net.transport.send_self_us_per_frame": times.us_per_call("TcpTransport.send"),
        "net.transport.hop_wait_p50_ms": pct(waits, 50),
        "net.transport.hop_wait_p90_ms": pct(waits, 90),
        "net.runtime.self_us_per_msg": ratio(
            times.layer_ns("net.runtime") / 1e3, times.calls(*messages)
        ),
        "obs.self_us_per_offer": ratio(times.layer_ns("obs") / 1e3, offers),
    }
    metrics = result["metrics"]
    metrics.update({name: value * speed for name, value in durations.items()})
    metrics["net.transport.frames_per_flush"] = ratio(sum(frames_out.values()), data_writes)
    result["samples"].update({"generator_lag": len(lags), "hop_wait": len(waits)})
    times.close(result, lo_ns, hi_ns)
