"""Interval scripts: replaying a simulated workload over real sockets.

The equivalence story of the socket runtime rests on a confluence
property of the detection core (checked empirically by the parallel
engine's tests): for a fixed set of per-process interval streams, the
repeated-detection solution *set* is identical under **any** queue
interleaving that preserves per-source order.  So to prove the socket
stack faithful we do not need to reproduce the simulator's timing —
only its per-node interval sequences:

1. run the ordinary simulator workload once (:func:`simulation_script`),
2. extract each node's local-interval stream from the execution trace,
3. replay those streams through a live cluster, in per-node order,
4. compare ordered solution signatures (:func:`solution_signatures`).

Identical signatures mean the network stack — codec, transport, reorder
buffers, asyncio scheduling — introduced no detection-visible
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..detect.roles import DetectionRecord
from ..experiments.harness import run_hierarchical
from ..intervals import Interval
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig

__all__ = ["IntervalScript", "simulation_script", "solution_signatures"]


@dataclass
class IntervalScript:
    """Per-node interval streams plus the simulator's reference answer."""

    tree: SpanningTree
    seed: int
    #: node -> that node's local intervals, in production (seq) order
    streams: Dict[int, List[Interval]] = field(default_factory=dict)
    #: node -> close time of each interval in the simulator (same order)
    close_times: Dict[int, List[float]] = field(default_factory=dict)
    #: the simulator run's detections, in announcement order
    reference: List[DetectionRecord] = field(default_factory=list)


def simulation_script(
    tree: SpanningTree,
    *,
    seed: int = 1,
    epochs: int = 4,
    sync_prob: float = 1.0,
    config: Optional[EpochConfig] = None,
) -> IntervalScript:
    """Run the epoch workload in the simulator and capture per-node
    interval streams plus the reference detections.

    The default ``sync_prob=1.0`` makes every epoch a global
    occurrence, so detections keep coming even after a subtree is
    killed — which is what the kill tests need to observe.  Rates < 1
    mix in epochs whose intervals never join any solution.
    """
    config = config or EpochConfig(epochs=epochs, sync_prob=sync_prob)
    result = run_hierarchical(tree, seed=seed, config=config)
    script = IntervalScript(tree=tree, seed=seed, reference=list(result.detections))
    for pid, intervals in sorted(result.trace.all_intervals().items()):
        ordered = sorted(intervals, key=lambda iv: iv.seq)
        script.streams[pid] = ordered
        script.close_times[pid] = [
            result.trace.interval_close_time(iv) for iv in ordered
        ]
    return script


def solution_signatures(detections: List[DetectionRecord]) -> List[Tuple]:
    """Order-independent-of-wall-time, content-complete signatures.

    Each detection collapses to ``(index, sorted head keys)`` — the
    solution's position in the repeated-detection sequence plus the
    identity of every queue head in it.  Lists compare equal iff the two
    runs announced the same solutions in the same detection order.
    """
    ordered = sorted(detections, key=lambda d: d.solution.index)
    return [
        (
            d.solution.index,
            tuple(sorted((k, iv.key()) for k, iv in d.solution.heads.items())),
        )
        for d in ordered
    ]
