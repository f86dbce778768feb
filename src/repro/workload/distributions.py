"""Seeded gap distribution shared by the sim workload and the traffic
plane.

Every interarrival / holding-time draw in the repository funnels through
this module so the simulator's :class:`~repro.workload.generator.RandomWorkload`
and the open-loop offer plan in :mod:`repro.load` cannot drift: both
worlds draw exponential gaps from ``numpy.random.Generator`` streams,
one draw per gap, in schedule order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exponential_gap"]


def exponential_gap(rng: np.random.Generator, mean: float) -> float:
    """One exponential gap with the given *mean* — exactly one draw from
    *rng*, so callers replacing an inline ``rng.exponential(mean)`` keep
    a byte-identical draw sequence."""
    return float(rng.exponential(mean))
