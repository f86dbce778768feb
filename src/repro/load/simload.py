"""Virtual-time traffic runs: the sim-side twin of the cluster load plane.

:func:`run_traffic` drives the *same* :class:`~repro.load.session.LoadSession`
— same generators, same dispatch, same admission gate, same metrics —
against a :class:`~repro.sim.kernel.Simulator` instead of a live socket
cluster.  The detector behind ``submit`` is the centralized sink core
(reference [12], the proven-equivalent oracle), fronted by a fixed
deterministic service delay so queues actually build and the admission
watermarks engage at realistic offered loads.

Because everything — arrivals, think times, service, sweeps — runs in
virtual time from named rng streams, a ``(seed, spec)`` pair reproduces
the run byte-for-byte
(``tests/load/test_simload.py::TestRunTraffic::test_same_seed_is_byte_identical``
runs it twice and compares).  That also makes this module the cheap way
to sweep offered load offline: :func:`traffic_specs` emits module-level
:class:`~repro.experiments.parallel.RunSpec` units a
:class:`~repro.experiments.parallel.ShardedRunner` can fan out across
worker processes.

Kept importable without :mod:`repro.net` at module scope — the interval
script comes from a lazy import inside :func:`run_traffic` — so
``repro.load`` never participates in the net package's import cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..detect.centralized import CentralizedSinkCore
from ..sim.kernel import Simulator
from .session import LoadSession, LoadSpec

__all__ = ["run_traffic", "traffic_specs"]

#: Hard event-count backstop for a single virtual-time run; generously
#: above anything a sane spec produces but finite, so a scheduling bug
#: fails fast instead of spinning the worker.
MAX_EVENTS = 2_000_000


def run_traffic(
    load: Optional[LoadSpec] = None,
    *,
    seed: int = 1,
    degree: int = 2,
    height: int = 2,
    epochs: int = 4,
    sync_prob: float = 1.0,
    service_time: float = 0.005,
    **load_overrides: Any,
) -> Dict[str, Any]:
    """One complete traffic run in virtual time; returns a plain dict.

    Module-level and picklable end to end (inputs are scalars plus the
    frozen :class:`LoadSpec`; the return value is JSON-shaped), so it
    drops straight into a :class:`RunSpec` for sharded sweeps.

    Parameters
    ----------
    load:
        The traffic model (default :class:`LoadSpec` when omitted);
        ``load_overrides`` are convenience kwargs applied on top, e.g.
        ``run_traffic(seed=3, rate=800.0, total_offers=500)``.
    seed / degree / height / epochs / sync_prob:
        The interval script: a regular ``degree``/``height`` tree's
        epoch workload captured once in the reference simulator.
    service_time:
        Fixed virtual delay between admission and the sink detector
        seeing the interval — the knob that lets open-loop rates above
        ``pids / service_time`` pile up outstanding work and trip the
        admission gate.
    """
    from ..net.script import simulation_script  # lazy: avoids net import cycle
    from ..topology.spanning_tree import SpanningTree

    if load is None:
        load = LoadSpec()
    if load_overrides:
        load = LoadSpec(**{**load.__dict__, **load_overrides})
    if service_time < 0:
        raise ValueError("service_time must be >= 0")

    tree = SpanningTree.regular(degree, height)
    script = simulation_script(tree, seed=seed, epochs=epochs, sync_prob=sync_prob)
    pids = sorted(script.streams)

    sim = Simulator(seed=seed)
    sink = CentralizedSinkCore(pids[0], pids)
    detections: List[Any] = []

    def deliver(pid: int, interval) -> None:
        for solution in sink.offer(pid, interval):
            detections.append(solution)
            session.notify_detection(solution)

    def submit(pid: int, interval) -> None:
        sim.schedule(service_time, lambda: deliver(pid, interval))

    session = LoadSession(
        sim,
        load,
        script.streams,
        submit,
        registry=sim.telemetry.registry,
    )
    # Fold the sink's queue lifecycle (enqueue / prune events) into the
    # epoch ledger — every sink queue is concrete, so the ledger sees
    # the same queued→matched transitions the live cluster observes at
    # its leaf cores.
    sink.add_observer(session.epochs.core_observer(sim))
    session.start()
    while not session.done:
        if sim.events_executed >= MAX_EVENTS:
            raise RuntimeError(
                f"traffic run exceeded {MAX_EVENTS} events without draining"
            )
        if not sim.step():
            break
    session.stop()

    summary = session.summary()
    return {
        "spec": {
            "mode": load.mode,
            "rate": load.rate,
            "arrival": load.arrival,
            "users": load.users,
            "total_offers": load.total_offers,
            "dispatch": load.dispatch,
            "policy": load.policy,
            "zipf_s": load.zipf_s,
            "max_outstanding": load.max_outstanding,
            "seed": seed,
            "nodes": len(pids),
            "service_time": service_time,
        },
        "summary": summary,
        "epochs": summary["epochs"],
        "epoch_ledger": session.epochs.to_dict(),
        "drained": session.done,
        "reference_match": session.reference_match(detections),
        "detections": len(detections),
        "admitted_by_target": {
            str(pid): count for pid, count in sorted(session.admitted_by_target().items())
        },
        "virtual_duration": sim.now,
        "events": sim.events_executed,
    }


def traffic_specs(
    rates,
    *,
    seed: int = 1,
    base: Optional[LoadSpec] = None,
    **run_kwargs: Any,
):
    """One open-loop :class:`RunSpec` per offered rate — the sharded
    sweep's work list for an offline saturation study."""
    from ..experiments.parallel import RunSpec

    base = base or LoadSpec()
    specs = []
    for rate in rates:
        load = LoadSpec(**{**base.__dict__, "mode": "open", "rate": float(rate)})
        specs.append(
            RunSpec(
                fn=run_traffic,
                args=(load,),
                kwargs={"seed": seed, **run_kwargs},
                label=f"load-rate-{rate:g}",
            )
        )
    return specs
