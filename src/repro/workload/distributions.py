"""Seeded gap distributions shared by the sim workload and the traffic
plane.

Every interarrival / holding-time draw in the repository funnels through
this module so the simulator's :class:`~repro.workload.generator.RandomWorkload`
and the socket-plane generators in :mod:`repro.load` cannot drift: both
worlds sample the same named distributions from the same
``numpy.random.Generator`` streams, one draw per gap, in schedule order.

Three arrival models (the ``kind`` strings the CLI and
:class:`repro.load.LoadSpec` accept):

* ``"poisson"`` — exponential gaps (memoryless; the open-loop default).
* ``"uniform"`` — gaps uniform on ``[0.5·mean, 1.5·mean]``: the same
  average rate with bounded jitter and no heavy tail.
* ``"bursty"`` — a two-phase modulated process: a persistent *burst*
  phase emits at ``burstiness``× the base rate, the *idle* phase is
  stretched so the long-run mean gap stays ``mean``.  Phase residency is
  a small Markov chain (stationary burst fraction ``burst_frac``), which
  produces the clumped arrivals open-loop saturation studies need.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["ARRIVAL_KINDS", "InterarrivalSampler", "exponential_gap"]

#: Arrival models understood by :class:`InterarrivalSampler` (and by the
#: ``LoadSpec.arrival``).
ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "uniform", "bursty")


def exponential_gap(rng: np.random.Generator, mean: float) -> float:
    """One exponential gap with the given *mean* — exactly one draw from
    *rng*, so callers replacing an inline ``rng.exponential(mean)`` keep
    a byte-identical draw sequence."""
    return float(rng.exponential(mean))


class InterarrivalSampler:
    """Stateful gap sampler for one arrival stream.

    One instance owns one stream's phase state (only ``"bursty"`` has
    any); the ``numpy`` generator is passed per draw so a caller can
    route different streams through differently named, deterministic
    rng streams (``clock.rng(name)``).
    """

    #: Burst-phase persistence per draw; with stationary fraction ``f``
    #: the idle→burst entry probability becomes ``f·(1-stay)/(1-f)``.
    BURST_STAY = 0.9

    def __init__(
        self,
        kind: str,
        mean: float,
        *,
        burstiness: float = 8.0,
        burst_frac: float = 0.2,
    ) -> None:
        if kind not in ARRIVAL_KINDS:
            raise ValueError(f"arrival kind must be one of {ARRIVAL_KINDS}, got {kind!r}")
        if mean <= 0:
            raise ValueError("mean gap must be positive")
        if burstiness <= 1.0:
            raise ValueError("burstiness must exceed 1.0")
        if not 0.0 < burst_frac < 1.0:
            raise ValueError("burst_frac must be in (0, 1)")
        self.kind = kind
        self.mean = mean
        self.burstiness = burstiness
        self.burst_frac = burst_frac
        # Burst gaps are mean/burstiness; the idle mean is stretched so
        # the stationary mix preserves the overall mean gap.
        self._burst_mean = mean / burstiness
        self._idle_mean = (
            mean * (1.0 - burst_frac / burstiness) / (1.0 - burst_frac)
        )
        self._enter_burst = burst_frac * (1.0 - self.BURST_STAY) / (1.0 - burst_frac)
        self._in_burst = False

    def next(self, rng: np.random.Generator) -> float:
        """Sample the next gap (seconds) from *rng*."""
        if self.kind == "poisson":
            return exponential_gap(rng, self.mean)
        if self.kind == "uniform":
            return float(rng.uniform(0.5 * self.mean, 1.5 * self.mean))
        # bursty: advance the phase chain, then draw the phase's gap.
        flip = float(rng.random())
        if self._in_burst:
            self._in_burst = flip < self.BURST_STAY
        else:
            self._in_burst = flip < self._enter_burst
        phase_mean = self._burst_mean if self._in_burst else self._idle_mean
        return exponential_gap(rng, phase_mean)
