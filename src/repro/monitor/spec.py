"""Predicate specifications for the monitoring façade.

A :class:`ConjunctivePredicate` is the user-level object the paper's
``Φ = φ_1 ∧ φ_2 ∧ … ∧ φ_n`` corresponds to: one boolean clause per
process, each a pure function of that process's local variables.  The
façade evaluates a process's clause after every local variable update
and drives the underlying interval machinery automatically.

Builders cover the common cases:

* :meth:`ConjunctivePredicate.threshold` — "every x_i > 30";
* :meth:`ConjunctivePredicate.equals` — "every mode_i == 'active'";
* :meth:`ConjunctivePredicate.uniform` — one callable for all;
* :meth:`ConjunctivePredicate.per_process` — heterogeneous clauses,
  e.g. the paper's Section I example ``x_i > 20 ∧ y_j < 45``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Mapping, Optional

__all__ = ["LocalClause", "ConjunctivePredicate", "HeartbeatSpec", "SLOSpec"]


@dataclass(frozen=True)
class HeartbeatSpec:
    """Validated liveness-protocol tunables (Section III-F).

    ``period`` is the heartbeat send interval; a peer silent for longer
    than the suspicion ``timeout`` is declared failed.  When ``timeout``
    is not given it is derived from ``loss_tolerance`` — the number of
    consecutive heartbeats that may be lost or late before suspicion —
    as ``period * (loss_tolerance + 0.2)``, the extra fifth of a period
    absorbing one-hop delivery jitter.  The defaults reproduce the
    historical ``(5.0, 16.0)`` tuple.

    Anywhere a ``(period, timeout)`` tuple is accepted
    (:class:`~repro.monitor.DistributedMonitor`,
    :class:`~repro.detect.HierarchicalRole`, the :mod:`repro.net`
    runtime) a spec can be passed instead; nonsensical values fail here,
    at construction, rather than as false suspicions mid-run.
    """

    period: float = 5.0
    loss_tolerance: int = 3
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.period, (int, float)) and math.isfinite(self.period)):
            raise ValueError(f"heartbeat period must be finite, got {self.period!r}")
        if self.period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {self.period}")
        if not isinstance(self.loss_tolerance, int) or self.loss_tolerance < 1:
            raise ValueError(
                "loss_tolerance must be an integer >= 1 (at least one missed "
                f"heartbeat must be tolerated), got {self.loss_tolerance!r}"
            )
        if self.timeout is not None:
            if not math.isfinite(self.timeout):
                raise ValueError(f"timeout must be finite, got {self.timeout!r}")
            if self.timeout <= self.period:
                raise ValueError(
                    f"suspicion timeout ({self.timeout}) must exceed the "
                    f"heartbeat period ({self.period}): a live peer's next "
                    "beat cannot arrive inside a shorter window"
                )

    @property
    def resolved_timeout(self) -> float:
        if self.timeout is not None:
            return float(self.timeout)
        return self.period * (self.loss_tolerance + 0.2)

    def as_tuple(self) -> tuple:
        """The ``(period, timeout)`` form the heartbeat machinery runs on."""
        return (float(self.period), self.resolved_timeout)

    @classmethod
    def coerce(cls, value) -> Optional[tuple]:
        """Normalize ``None`` / ``(period, timeout)`` / spec to a tuple."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value.as_tuple()
        period, timeout = value
        return cls(period=float(period), timeout=float(timeout)).as_tuple()

@dataclass(frozen=True)
class SLOSpec:
    """Service-level thresholds the cluster observability plane watches.

    Each field is a breach threshold (``None`` disables that check):

    * ``detection_latency_p99`` — wall seconds; breached when any node's
      ``repro_detection_latency`` histogram p99 exceeds it;
    * ``stranded_epoch_rate`` — fraction in ``(0, 1]``; breached when
      the :class:`~repro.obs.epochs.StrandingWatchdog` sees stranded
      epochs exceed that fraction of admitted epochs (the goodput
      cliff: admitted work wasted because siblings were shed or a
      target died).

    A breach does not stop anything — it lands on the cluster log as a
    latched ``slo_breach`` event, which ``repro-cluster run --jsonl``
    dumps and ``repro-cluster postmortem`` reports.
    """

    detection_latency_p99: Optional[float] = None
    stranded_epoch_rate: Optional[float] = None

    def __post_init__(self) -> None:
        p99 = self.detection_latency_p99
        if p99 is not None:
            if not (isinstance(p99, (int, float)) and math.isfinite(p99)):
                raise ValueError(f"detection_latency_p99 must be finite, got {p99!r}")
            if p99 <= 0:
                raise ValueError(f"detection_latency_p99 must be positive, got {p99}")
        if self.stranded_epoch_rate is not None:
            rate = self.stranded_epoch_rate
            if not (isinstance(rate, (int, float)) and math.isfinite(rate)):
                raise ValueError(f"stranded_epoch_rate must be finite, got {rate!r}")
            if not 0 < rate <= 1:
                raise ValueError(
                    "stranded_epoch_rate is a fraction of admitted epochs and "
                    f"must be in (0, 1], got {rate}"
                )

    @property
    def enabled(self) -> bool:
        """Whether any threshold is configured."""
        return any(value is not None for value in self.as_dict().values())

    def as_dict(self) -> dict:
        """JSON-safe form: every threshold by field name."""
        return asdict(self)


#: A local clause: variables of one process -> bool.
LocalClause = Callable[[Mapping[str, object]], bool]


class ConjunctivePredicate:
    """A global conjunction of per-process local clauses."""

    def __init__(self, clauses: Dict[int, LocalClause], *, name: str = "phi") -> None:
        if not clauses:
            raise ValueError("a conjunctive predicate needs at least one clause")
        self.clauses = dict(clauses)
        self.name = name

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, processes, clause: LocalClause, *, name: str = "phi"):
        """The same clause at every process."""
        return cls({pid: clause for pid in processes}, name=name)

    @classmethod
    def threshold(
        cls,
        processes,
        variable: str,
        *,
        gt: Optional[float] = None,
        lt: Optional[float] = None,
        name: Optional[str] = None,
    ):
        """``variable > gt`` and/or ``variable < lt`` at every process.
        Missing variables evaluate to false (predicate not yet known)."""
        if gt is None and lt is None:
            raise ValueError("give at least one of gt/lt")

        def clause(variables: Mapping[str, object]) -> bool:
            value = variables.get(variable)
            if value is None:
                return False
            if gt is not None and not value > gt:
                return False
            if lt is not None and not value < lt:
                return False
            return True

        label = name or f"{variable}{'>' + str(gt) if gt is not None else ''}" + (
            f"<{lt}" if lt is not None else ""
        )
        return cls.uniform(processes, clause, name=label)

    @classmethod
    def equals(cls, processes, variable: str, value, *, name: Optional[str] = None):
        """``variable == value`` at every process."""
        return cls.uniform(
            processes,
            lambda variables: variables.get(variable) == value,
            name=name or f"{variable}=={value!r}",
        )

    @classmethod
    def per_process(cls, clauses: Dict[int, LocalClause], *, name: str = "phi"):
        """Explicit heterogeneous clauses (the general Section I form)."""
        return cls(clauses, name=name)

    # ------------------------------------------------------------------
    def evaluate(self, pid: int, variables: Mapping[str, object]) -> bool:
        clause = self.clauses.get(pid)
        if clause is None:
            raise KeyError(f"no clause for process {pid}")
        return bool(clause(variables))

    @property
    def processes(self):
        return sorted(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConjunctivePredicate({self.name!r}, n={len(self.clauses)})"
