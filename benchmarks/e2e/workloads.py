"""The four workloads.  Why each exists is in README.md and BENCHMARK.json.

Live workloads share one cluster shape —
``ClusterSpec(nodes=7, degree=2, transport="tcp", wire="binary",
sync_prob=1.0)`` with every other field at its default — and one
traffic shape — ``LoadSpec(mode="open", arrival="poisson",
policy="shed", pending_timeout=2.0)``; they differ in rate, admission
window and fault schedule only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

__all__ = ["Live", "Sim", "WORKLOADS", "REPETITIONS"]

#: untraced repetitions per workload; the reported value is their median
REPETITIONS = 3

#: share of a live window spent warming up before it (discarded): timer
#: arming for the whole schedule outlasts ``start_delay`` at 7500
#: offers/s, and the first offers fire late until the loop catches up
WARMUP_FRAC = 0.3


@dataclass(frozen=True)
class Live:
    name: str
    rate: float  #: offers/s (7 offers = 1 epoch)
    max_outstanding: int
    #: measured window as a multiple of the per-repetition seconds
    window_scale: float = 1.0
    #: ``(fraction of the window, pid)`` crash-stops
    kills: Tuple[Tuple[float, int], ...] = ()
    #: the loop is CPU-bound for the whole window by design, so its
    #: rates are capacity and follow the box's speed (see Calibrator)
    saturated: bool = False


@dataclass(frozen=True)
class Sim:
    name: str
    degree: int = 4
    height: int = 4
    sync_prob: float = 0.7
    #: epochs simulated per second of ``--seconds`` budget (fixed work,
    #: not fixed time: every count then repeats exactly for a seed)
    epochs_per_second: float = 80.0


WORKLOADS: Dict[str, Union[Live, Sim]] = {
    w.name: w
    for w in (
        Live("tcp7_steady", rate=700.0, max_outstanding=256),
        Live("tcp7_overload", rate=7500.0, max_outstanding=64, saturated=True),
        # Two repairs of 1.5-2 s each (heartbeat 0.25 s x 7 + tick phase)
        # must fit with room to spare, and their share of the window sets
        # goodput: a 2x window halves that share's seed-to-seed spread.
        # Node 6 is a leaf; node 1 is internal (3 and 4 are orphaned).
        Live(
            "tcp7_crash",
            rate=700.0,
            max_outstanding=256,
            window_scale=2.0,
            kills=((0.15, 6), (0.55, 1)),
        ),
        Sim("sim85_paper"),
    )
}
