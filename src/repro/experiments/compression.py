"""Ablation: timestamp compression on real report streams.

Section IV charges every message O(n) entries for its two vector
timestamps.  This ablation replays the actual report stream of a
simulated hierarchical run through the encoders of
:mod:`repro.clocks.encoding` and measures what an adaptive sender
(raw / sparse / differential per timestamp, reference = the previous
report on the same child→parent channel) would actually transmit.

Localized workloads compress dramatically — successive aggregates from
the same subtree differ mostly in that subtree's components — which is
exactly the regime the paper's WSN motivation lives in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..clocks import best_encoding
from ..intervals import Interval
from ..topology.spanning_tree import SpanningTree
from ..workload.generator import EpochConfig

__all__ = ["CompressionResult", "compression_ablation"]


@dataclass
class CompressionResult:
    d: int
    h: int
    n: int
    reports: int
    raw_entries: int
    adaptive_entries: int
    picks: dict  # encoding name -> count

    @property
    def savings(self) -> float:
        if self.raw_entries == 0:
            return 0.0
        return 1.0 - self.adaptive_entries / self.raw_entries


def _report_streams(
    tree: SpanningTree, *, seed: int, workload: str, p: int, sync_prob: float
) -> Dict[int, List[Interval]]:
    """Run the hierarchy and return every aggregate each non-root node
    reported, in emission order, as the roles hand them out
    (``on_subtree_solution``; cores keep no emission history).  The root
    announces locally: nothing it emits goes on the wire.

    ``"epoch"`` is :func:`~repro.experiments.harness.run_hierarchical`'s
    fault-free run.  ``"local"`` is random predicate toggles with chatter
    confined to tree neighbours: causality — and therefore timestamp
    growth — stays local, the regime where differential encoding pays."""
    from ..detect.roles import HierarchicalRole
    from ..sim.process import MonitoredProcess
    from ..workload.generator import RandomWorkload
    from .harness import _build_common, _run_epochs

    if workload not in ("epoch", "local"):
        raise ValueError(f"unknown workload {workload!r}")
    sim, network, trace, _ = _build_common(tree, None, seed)
    emitted: Dict[int, List[Interval]] = {pid: [] for pid in tree.nodes}

    def collect(pid: int, emission) -> None:
        emitted[pid].append(emission.aggregate)

    roles = {
        pid: HierarchicalRole(
            tree.parent_of(pid), tree.children(pid), on_subtree_solution=collect
        )
        for pid in tree.nodes
    }
    if workload == "epoch":
        config = EpochConfig(epochs=p, sync_prob=sync_prob)
        _run_epochs(sim, network, trace, tree, roles, config, 0.0)
    else:
        processes = {
            pid: MonitoredProcess(pid, sim, network, trace, roles[pid])
            for pid in tree.nodes
        }
        RandomWorkload(sim, processes, duration=12.0 * p, msg_rate=0.6).install()
        for process in processes.values():
            process.start()
        sim.run(until=12.0 * p + 60.0)
    return {pid: emitted[pid] for pid in tree.nodes if roles[pid].parent_id is not None}


def compression_ablation(
    *,
    d: int = 2,
    h: int = 4,
    p: int = 12,
    sync_prob: float = 0.7,
    seed: int = 19,
    workload: str = "epoch",
) -> CompressionResult:
    tree = SpanningTree.regular(d, h)
    streams = _report_streams(tree, seed=seed, workload=workload, p=p, sync_prob=sync_prob)
    n = tree.n
    raw = adaptive = reports = 0
    picks: dict = {"raw": 0, "sparse": 0, "differential": 0}
    for aggregates in streams.values():
        prev_lo = prev_hi = None
        for aggregate in aggregates:
            reports += 1
            for bound, prev in ((aggregate.lo, prev_lo), (aggregate.hi, prev_hi)):
                raw += n
                name, entries = best_encoding(bound, prev)
                adaptive += entries
                picks[name] += 1
            prev_lo, prev_hi = aggregate.lo, aggregate.hi
    return CompressionResult(
        d=d, h=h, n=n, reports=reports,
        raw_entries=raw, adaptive_entries=adaptive, picks=picks,
    )
