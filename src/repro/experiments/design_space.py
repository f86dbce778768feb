"""Experiment: the detection-algorithm design space, measured.

Section I of the paper positions the hierarchical algorithm against
centralized detectors (all queues, time and risk at a sink [7], [8],
[12]).  This experiment runs the hierarchical detector, the centralized
repeated detector [12] and its one-shot mode [7] over the *identical*
workload and measures the axes the paper argues about:

* control messages (hop-counted),
* where comparison work lands (max per node vs total),
* where queue space lands (max per node),
* and what each can actually deliver: every occurrence (repeated) vs
  the first one only.

Of the two repeated detectors, the hierarchical algorithm is the one
that does it with one-hop traffic and bounded per-node load — the
measured version of the paper's Contributions list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import render_table
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig
from .harness import run_centralized, run_hierarchical

__all__ = ["AlgorithmProfile", "design_space_comparison", "format_design_space"]


@dataclass
class AlgorithmProfile:
    name: str
    repeated: bool
    detections: int
    control_messages: int
    cmp_max_node: int
    cmp_total: int
    queue_max_node: int
    survives_any_single_crash: bool


def design_space_comparison(
    *,
    d: int = 2,
    h: int = 4,
    p: int = 10,
    sync_prob: float = 0.8,
    seed: int = 17,
) -> List[AlgorithmProfile]:
    config = EpochConfig(epochs=p, sync_prob=sync_prob)

    hier = run_hierarchical(SpanningTree.regular(d, h), seed=seed, config=config)
    cent = run_centralized(SpanningTree.regular(d, h), seed=seed, config=config)
    one_shot = run_centralized(
        SpanningTree.regular(d, h), seed=seed, config=config, one_shot=True
    )

    def profile(name, result, *, repeated, survives):
        return AlgorithmProfile(
            name=name,
            repeated=repeated,
            detections=len(result.detections),
            control_messages=result.metrics.control_messages,
            cmp_max_node=result.metrics.max_comparisons_per_node,
            cmp_total=result.metrics.total_comparisons,
            queue_max_node=result.metrics.max_queue_per_node,
            survives_any_single_crash=survives,
        )

    return [
        profile("hierarchical (this paper)", hier, repeated=True, survives=True),
        profile("centralized repeated [12]", cent, repeated=True, survives=False),
        profile("centralized one-shot [7]", one_shot, repeated=False, survives=False),
    ]


def format_design_space(profiles: List[AlgorithmProfile]) -> str:
    return render_table(
        ["algorithm", "repeated", "detections", "ctrl msgs",
         "cmp max/node", "cmp total", "queue max/node", "survives crash"],
        [
            [pr.name, "yes" if pr.repeated else "no", pr.detections,
             pr.control_messages, pr.cmp_max_node, pr.cmp_total,
             pr.queue_max_node, "yes" if pr.survives_any_single_crash else "no"]
            for pr in profiles
        ],
    )
