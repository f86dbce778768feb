"""Admission control: shed before the cluster drowns.

The controller sits between dispatch and ``NodeRuntime.offer_local`` and
answers one question per offer: *admit* or *shed* (reject outright).
Two saturation signals feed it:

* **outstanding watermarks** — a latched high/low-water pair over the
  cluster-wide count of admitted-but-undetected offers, mirroring the
  transport outbox watermarks: crossing ``max_outstanding`` engages
  shedding, which stays engaged until completions bring outstanding back
  under ``resume_outstanding`` (hysteresis, so the gate doesn't flap at
  the boundary).
* **transport congestion** — the ``congested_peers()`` probe, asked
  once per decision whether the target holds a peer link above its
  outbox high watermark right now.  A congested target sheds even when
  the global gate is open — pushing more offers at a node that cannot
  drain its outbox only converts them into outbox drops downstream.

Every decision lands in ``repro_load_*`` metrics; the watermark edges
are also emitted as ``load_shed_engaged`` / ``load_shed_released``
events, so the cluster log (and the ``run --jsonl`` dump of it) frames
a saturation episode.

Sizing note: ``max_outstanding`` must comfortably exceed the cluster's
node count.  ``Definitely(Φ)`` completes offers a whole epoch at a time
(one interval per process), so a gate tighter than one epoch stride can
never see a completion and converts the workload into pure shedding.
``LoadSpec.check_stride`` enforces this against the process count.
"""

from __future__ import annotations

from typing import Callable, Optional

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
        congestion_probe: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if not 0 < resume_outstanding <= max_outstanding:
            raise ValueError(
                "watermarks must satisfy 0 < resume_outstanding <= max_outstanding"
            )
        self.clock = clock
        self.max_outstanding = max_outstanding
        self.resume_outstanding = resume_outstanding
        self._probe = congestion_probe
        self.saturated = False
        #: why the latest :meth:`decide` shed (``None`` unless it shed):
        #: the target's congestion outranks the global gate.  The
        #: session, the epoch ledger and ``repro_load_shed_total`` all
        #: book this one reason.
        self.shed_reason: Optional[str] = None

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
        self.outstanding_gauge = registry.gauge(
            "repro_load_outstanding",
            "Admitted offers not yet resolved by a detection.",
        )

    # ------------------------------------------------------------------
    def decide(self, target: int, outstanding: int) -> bool:
        """Admit (``True``) or shed one offer routed to *target*; a shed
        leaves its reason in :attr:`shed_reason`.

        The caller counts the admit itself (via :meth:`count_admit`)
        only after the runtime accepted the interval, so the metric
        never leads reality.
        """
        self.offered[target] += 1
        self.shed_reason = None
        congested = self._probe is not None and bool(self._probe(target))
        if self.saturated:
            if outstanding <= self.resume_outstanding and not congested:
                self.saturated = False
                self.clock.emit("load_shed_released", outstanding=outstanding)
            else:
                return self._shed(congested)
        if outstanding >= self.max_outstanding:
            self.saturated = True
            self.clock.emit(
                "load_shed_engaged", outstanding=outstanding, reason="outstanding"
            )
            return self._shed(congested)
        if congested:
            return self._shed(congested)
        return True

    def _shed(self, congested: bool) -> bool:
        self.shed_reason = "congested" if congested else "saturated"
        self.shed[self.shed_reason] += 1
        return False

    # ------------------------------------------------------------------
    def count_admit(self, target: int) -> None:
        self.admitted[target] += 1

    def count_shed(self, reason: str) -> None:
        """Out-of-band sheds (e.g. ``no-target`` when every node died)."""
        self.shed[reason] += 1

    def set_outstanding(self, value: int) -> None:
        self.outstanding_gauge.set(value)
