"""Dispatch: which node runtime an admitted offer lands on.

A :class:`DispatchPolicy` sees one offer plus the current per-target
outstanding counts and names a target; the :class:`LoadBalancer` in
front of it owns the live target list (dead nodes drop out when the
cluster's repair machinery confirms a kill).  All four stock policies
are deterministic — no rng draws — so a fixed offer stream routes
identically on every run:

* ``round_robin`` — cycle the sorted target list.
* ``least_outstanding`` — fewest admitted-but-undetected offers wins;
  ties break to the lowest pid.
* ``weighted`` — smooth weighted round-robin (the nginx algorithm):
  each pick adds every target's weight to its current credit, takes the
  highest credit, and debits the picked target by the weight total.
  Over one weight period the pick counts match the weights exactly.
* ``affinity`` — honour the offer's Zipf-drawn home process, so the
  per-process offered rates carry the popularity skew end-to-end.

Note the interplay with the detector: a ``Definitely(Φ)`` solution needs
one interval from *every* process, so skewed routing (``affinity`` under
a steep Zipf, or lopsided ``weighted`` tables) starves conjunctions —
hot nodes race ahead through their interval supply while cold nodes lag,
and sojourn latency is set by the *coldest* target (``docs/load.md``,
"Popularity and dispatch"; ``tests/load/test_popularity.py`` pins the
skew itself).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Protocol, Sequence

__all__ = [
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "LoadBalancer",
    "RoundRobin",
    "LeastOutstanding",
    "Weighted",
    "Affinity",
    "make_policy",
]


class DispatchPolicy(Protocol):
    """One routing decision: offer + live targets + load → target pid."""

    def choose(
        self, offer, targets: Sequence[int], outstanding: Mapping[int, int]
    ) -> int:
        """Pick one of *targets* (non-empty, sorted ascending)."""


class RoundRobin:
    """Cycle the sorted target list, skipping targets that left it."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, offer, targets, outstanding) -> int:
        pick = targets[self._next % len(targets)]
        self._next += 1
        return pick


class LeastOutstanding:
    """Fewest in-flight offers wins; ties go to the lowest pid."""

    def choose(self, offer, targets, outstanding) -> int:
        return min(targets, key=lambda pid: (outstanding.get(pid, 0), pid))


class Weighted:
    """Smooth weighted round-robin over a static weight table.

    Weights are relative (any positive scale); targets missing from the
    table weigh as the smallest configured weight so late repair
    survivors still receive traffic.
    """

    def __init__(self, weights: Mapping[int, float]) -> None:
        if not weights or any(w <= 0 for w in weights.values()):
            raise ValueError("weighted dispatch needs positive weights")
        self.weights = dict(weights)
        self._floor = min(self.weights.values())
        self._credit: Dict[int, float] = {}

    def choose(self, offer, targets, outstanding) -> int:
        total = 0.0
        for pid in targets:
            weight = self.weights.get(pid, self._floor)
            self._credit[pid] = self._credit.get(pid, 0.0) + weight
            total += weight
        pick = max(targets, key=lambda pid: (self._credit[pid], -pid))
        self._credit[pick] -= total
        return pick


class Affinity:
    """Route to the offer's Zipf-drawn home (fall back to round-robin
    when the home process is gone)."""

    def __init__(self) -> None:
        self._fallback = RoundRobin()

    def choose(self, offer, targets, outstanding) -> int:
        home = getattr(offer, "home", None)
        if home in targets:
            return home
        return self._fallback.choose(offer, targets, outstanding)


#: Policy name → zero-config factory (``weighted`` needs a table and is
#: special-cased by :func:`make_policy`).
DISPATCH_POLICIES = {
    "round_robin": RoundRobin,
    "least_outstanding": LeastOutstanding,
    "weighted": Weighted,
    "affinity": Affinity,
}


def make_policy(
    name: str, *, weights: Optional[Mapping[int, float]] = None
) -> DispatchPolicy:
    """Build a stock policy by name (``weights`` required for, and only
    consumed by, ``"weighted"``)."""
    if name not in DISPATCH_POLICIES:
        raise ValueError(
            f"dispatch must be one of {sorted(DISPATCH_POLICIES)}, got {name!r}"
        )
    if name == "weighted":
        if not weights:
            raise ValueError("weighted dispatch needs a weight table")
        return Weighted(weights)
    return DISPATCH_POLICIES[name]()


class LoadBalancer:
    """The front door: live-target bookkeeping around a policy."""

    def __init__(
        self,
        policy: DispatchPolicy,
        targets: Sequence[int],
        *,
        alive: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if not targets:
            raise ValueError("load balancer needs at least one target")
        self.policy = policy
        self.targets: List[int] = sorted(targets)
        self._alive = alive

    def live_targets(self) -> List[int]:
        if self._alive is None:
            return self.targets
        return [pid for pid in self.targets if self._alive(pid)]

    def route(self, offer, outstanding: Mapping[int, int]) -> Optional[int]:
        """Pick a live target for *offer*, or ``None`` when every target
        is down (the caller sheds with reason ``no-target``)."""
        live = self.live_targets()
        if not live:
            return None
        return self.policy.choose(offer, live, outstanding)
