"""Admission control: shed or defer before the cluster drowns.

The controller sits between dispatch and ``NodeRuntime.offer_local`` and
answers one question per offer: *admit*, *defer* (retry shortly), or
*shed* (reject outright).  Two saturation signals feed it:

* **outstanding watermarks** — a latched high/low-water pair over the
  cluster-wide count of admitted-but-undetected offers, mirroring the
  transport outbox watermarks: crossing ``max_outstanding`` engages
  shedding, which stays engaged until completions bring outstanding back
  under ``resume_outstanding`` (hysteresis, so the gate doesn't flap at
  the boundary).
* **transport congestion** — the per-link high/low-water events the
  transports already emit (``net_congested`` / ``net_uncongested``),
  delivered via :meth:`note_congestion`, plus the
  ``congested_peers()`` snapshot probe for targets whose uplink is
  currently backed up.  A congested target sheds even when the global
  gate is open — pushing more offers at a node that cannot drain its
  outbox only converts them into outbox drops downstream.

Every decision lands in ``repro_load_*`` metrics; the watermark edges
are also emitted as ``load_shed_engaged`` / ``load_shed_released``
events so the flight recorder and postmortem tooling can frame a
saturation episode.

Sizing note: ``max_outstanding`` must comfortably exceed the cluster's
node count.  ``Definitely(Φ)`` completes offers a whole epoch at a time
(one interval per process), so a gate tighter than one epoch stride can
never see a completion and converts the workload into pure shedding.
``LoadSpec`` validation enforces this against the session's pid count.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

__all__ = ["AdmissionController"]


class AdmissionController:
    """Latched watermark + congestion gate with full decision metrics."""

    def __init__(
        self,
        clock,
        registry,
        *,
        max_outstanding: int,
        resume_outstanding: int,
        policy: str = "shed",
        max_defers: int = 3,
        congestion_probe: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if policy not in ("shed", "defer"):
            raise ValueError(f"admission policy must be 'shed' or 'defer', got {policy!r}")
        if not 0 < resume_outstanding <= max_outstanding:
            raise ValueError(
                "watermarks must satisfy 0 < resume_outstanding <= max_outstanding"
            )
        self.clock = clock
        self.max_outstanding = max_outstanding
        self.resume_outstanding = resume_outstanding
        self.policy = policy
        self.max_defers = max_defers
        self._probe = congestion_probe
        self.saturated = False
        #: why the latest :meth:`decide` shed, as the session books it
        #: (``None`` unless it returned ``"shed"``): the target's
        #: congestion outranks the global gate here, whereas
        #: ``repro_load_shed_total`` names the gate that fired first
        self.shed_reason: Optional[str] = None
        self._congested: Set[int] = set()

        self.offered = registry.counter_vec(
            "repro_load_offered_total",
            "Offers reaching admission control, per dispatch target.",
            ("target",),
        )
        self.admitted = registry.counter_vec(
            "repro_load_admitted_total",
            "Offers admitted into node runtimes, per target.",
            ("target",),
        )
        self.shed = registry.counter_vec(
            "repro_load_shed_total",
            "Offers rejected by admission control, per reason.",
            ("reason",),
        )
        self.deferred = registry.counter(
            "repro_load_deferred_total",
            "Offers pushed back for retry by the defer policy.",
        )
        self.outstanding_gauge = registry.gauge(
            "repro_load_outstanding",
            "Admitted offers not yet resolved by a detection.",
        )

    # ------------------------------------------------------------------
    # congestion feed (transport high/low-water events)
    # ------------------------------------------------------------------
    def note_congestion(self, node: int, congested: bool) -> None:
        """Edge-triggered feed from ``net_congested``/``net_uncongested``
        events: *node* has (or no longer has) a backed-up peer link."""
        if congested:
            self._congested.add(node)
        else:
            self._congested.discard(node)

    def target_congested(self, target: int) -> bool:
        if target in self._congested:
            return True
        return bool(self._probe(target)) if self._probe is not None else False

    # ------------------------------------------------------------------
    def decide(self, offer, target: int, outstanding: int) -> str:
        """``"admit"`` / ``"defer"`` / ``"shed"`` for one routed offer.

        The caller counts the admit itself (via :meth:`count_admit`)
        only after the runtime accepted the interval, so the metric
        never leads reality.
        """
        self.offered[target] += 1
        self.shed_reason = None
        congested = self.target_congested(target)
        if self.saturated:
            if outstanding <= self.resume_outstanding and not congested:
                self.saturated = False
                self.clock.emit("load_shed_released", outstanding=outstanding)
            else:
                return self._reject(offer, "saturated", congested)
        if outstanding >= self.max_outstanding:
            self.saturated = True
            self.clock.emit(
                "load_shed_engaged", outstanding=outstanding, reason="outstanding"
            )
            return self._reject(offer, "saturated", congested)
        if congested:
            return self._reject(offer, "congested", congested)
        return "admit"

    def _reject(self, offer, reason: str, congested: bool) -> str:
        if self.policy == "defer" and offer.attempts < self.max_defers:
            self.deferred.inc()
            return "defer"
        if self.policy == "defer":
            reason = self.shed_reason = "defer-exhausted"
        else:
            self.shed_reason = "congested" if congested else "saturated"
        self.shed[reason] += 1
        return "shed"

    # ------------------------------------------------------------------
    def count_admit(self, target: int) -> None:
        self.admitted[target] += 1

    def count_shed(self, reason: str) -> None:
        """Out-of-band sheds (e.g. ``no-target`` when every node died)."""
        self.shed[reason] += 1

    def set_outstanding(self, value: int) -> None:
        self.outstanding_gauge.set(value)
