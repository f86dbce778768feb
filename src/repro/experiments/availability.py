"""Experiment: monitoring availability under crashes (Section III-F).

The paper's fault-tolerance claim is qualitative: after a failure "the
detection of the predicate in the remaining processes could be easily
resumed".  This experiment quantifies it: on a fixed workload (every
epoch a global occurrence), crash ``k`` random nodes at spaced times
and measure

* how many occurrences the (surviving) hierarchy still announces,
* the *coverage* of each announcement (fraction of live processes its
  solution witnesses),
* and the blackout: the longest gap between consecutive announcements,
  which bounds how long repairs stalled the monitoring.

The centralized baseline column answers the same questions with the
sink as a victim candidate — one unlucky draw and availability drops to
zero for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..analysis.report import render_table
from ..topology.spanning_tree import SpanningTree
from ..topology.graphs import tree_with_chords
from ..workload.generator import EpochConfig
from .harness import run_hierarchical

__all__ = ["AvailabilityPoint", "availability_sweep", "format_availability"]


@dataclass
class AvailabilityPoint:
    failures: int
    victims: List[int]
    detections: int
    post_failure_detections: int
    mean_coverage: float  # members / live processes, averaged over detections
    longest_blackout: float  # max gap between consecutive detections


def availability_sweep(
    *,
    d: int = 2,
    h: int = 4,
    epochs: int = 16,
    failure_counts: Sequence[int] = (0, 1, 2, 3),
    seed: int = 21,
) -> List[AvailabilityPoint]:
    points: List[AvailabilityPoint] = []
    config = EpochConfig(epochs=epochs, sync_prob=1.0, drain_time=100.0)
    rng = np.random.default_rng(seed)
    for k in failure_counts:
        tree = SpanningTree.regular(d, h)
        graph = tree_with_chords(tree.as_graph(), extra_edges=2 * tree.n, seed=seed)
        n = tree.n
        victims = sorted(
            int(v) for v in rng.choice(np.arange(n), size=k, replace=False)
        )
        epoch_len = config.resolved_epoch_length(tree.height, 1.5)
        crash_times = [
            (epoch_len * (3 + 4 * i), victim) for i, victim in enumerate(victims)
        ]
        result = run_hierarchical(
            tree, graph=graph, seed=seed, config=config, failures=crash_times
        )
        first_crash = crash_times[0][0] if crash_times else float("inf")
        dead_after = {v: t for t, v in crash_times}

        coverages = []
        for record in result.detections:
            live = n - sum(1 for t in dead_after.values() if t <= record.time)
            coverages.append(len(record.members) / live)
        times = sorted(d.time for d in result.detections)
        gaps = [b - a for a, b in zip(times, times[1:])]
        points.append(
            AvailabilityPoint(
                failures=k,
                victims=victims,
                detections=len(result.detections),
                post_failure_detections=sum(
                    1 for d in result.detections if d.time > first_crash
                ),
                mean_coverage=float(np.mean(coverages)) if coverages else 0.0,
                longest_blackout=max(gaps) if gaps else 0.0,
            )
        )
    return points


def format_availability(points: List[AvailabilityPoint]) -> str:
    return render_table(
        ["failures", "victims", "detections", "post-failure detections",
         "mean coverage", "longest blackout"],
        [
            [pt.failures, pt.victims, pt.detections, pt.post_failure_detections,
             f"{pt.mean_coverage:.3f}", f"{pt.longest_blackout:.1f}"]
            for pt in points
        ],
    )
