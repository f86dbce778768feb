"""repro.load — the traffic plane.

Drives a detection cluster like a real fleet: open/closed-loop offer
generators, pluggable dispatch policies behind a load balancer, and
watermark+congestion admission control, all accounted through
``repro_load_*`` metrics.  One
:class:`~repro.load.session.LoadSession` implementation runs against
both the live socket cluster (:mod:`repro.net.cluster` wires it) and the
virtual-time simulator (:mod:`repro.load.simload`), which is what makes
a saturation sweep deterministic and cheap (``tests/load/test_simload.py``);
the live plane past saturation is the benchmark's ``tcp7_overload``.

This package deliberately imports nothing from :mod:`repro.net` at
module scope; the net package imports *us* (cluster wiring), and the one
load-side consumer of net code (:func:`repro.load.simload.run_traffic`)
does its import lazily.
"""

from .admission import AdmissionController
from .dispatch import (
    DISPATCH_POLICIES,
    DispatchPolicy,
    LeastOutstanding,
    LoadBalancer,
    RoundRobin,
    Weighted,
    make_policy,
)
from .generators import ClosedLoopGenerator, Offer, OpenLoopGenerator
from .latency import LOAD_SOJOURN_BUCKETS, LatencyStore
from .session import IntervalSupply, LoadSession, LoadSpec, solution_keyset
from .simload import run_traffic, traffic_specs

__all__ = [
    "AdmissionController",
    "ClosedLoopGenerator",
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "IntervalSupply",
    "LOAD_SOJOURN_BUCKETS",
    "LatencyStore",
    "LeastOutstanding",
    "LoadBalancer",
    "LoadSession",
    "LoadSpec",
    "Offer",
    "OpenLoopGenerator",
    "RoundRobin",
    "Weighted",
    "make_policy",
    "run_traffic",
    "solution_keyset",
    "traffic_specs",
]
