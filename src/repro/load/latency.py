"""The traffic plane's pending table and its sojourn accounting.

An offer's *sojourn* is the wall (or virtual) time from admission — the
moment the admission controller lets it through to a node runtime — to
the root detection that consumes its interval.  :class:`LatencyStore`
holds the one table of admitted-but-unresolved offers, keyed by
``(owner, seq)`` (the identity a concrete interval carries through
hierarchical aggregation, so a root solution's ``concrete_leaves``
match back to the admitted offers), together with a per-target count
of its entries: dispatch, the admission gate and the epoch ledger's
depth and age watermarks all read this one table.  Every completed
sojourn folds into a ``repro_load_sojourn_seconds`` histogram.

Offers whose epoch never completes — a sibling was shed, a node died —
must not pin the closed-loop generator forever: :meth:`expire` sweeps
pending entries older than the admission timeout so the caller can count
them abandoned and release their virtual users.  Expiries are never
silent: each one is classified (shed sibling vs dead target vs plain
pending-timeout, via the caller's ``classify`` hook — typically
:meth:`repro.obs.epochs.EpochLedger.expiry_cause`) and counted in
``repro_load_expired_total{reason}`` next to the sojourn histogram, so
the accounting explains *why* a pending entry died instead of just
dropping it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .generators import Offer

__all__ = ["LOAD_SOJOURN_BUCKETS", "LatencyStore"]

#: Sojourn histogram buckets (seconds): loopback epochs complete in
#: milliseconds; the tail covers saturated queues and pending-timeout
#: reaps.
LOAD_SOJOURN_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf"),
)

Key = Tuple[int, int]  # (owner pid, interval seq)


class LatencyStore:
    """Pending admissions plus the sojourn histogram they resolve into."""

    def __init__(
        self, registry, *, name: str = "repro_load_sojourn_seconds"
    ) -> None:
        self.histogram = registry.histogram(
            name,
            "Admission-to-detection sojourn of admitted offers.",
            LOAD_SOJOURN_BUCKETS,
        )
        self.expired = registry.counter_vec(
            "repro_load_expired_total",
            "Pending admissions reaped by the timeout sweep, by cause "
            "(shed-sibling / dead-target / pending-timeout).",
            ("reason",),
        )
        #: key -> (offer, target, admitted_at), in admission order
        self._pending: Dict[Key, Tuple[Offer, int, float]] = {}
        #: target -> its entries in the table (what dispatch balances on)
        self.by_target: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def admit(self, key: Key, offer: Offer, target: int, now: float) -> int:
        """Enter *key*; returns *target*'s pending count including it."""
        if key in self._pending:
            raise ValueError(f"offer {key} already pending")
        self._pending[key] = (offer, target, now)
        depth = self.by_target.get(target, 0) + 1
        self.by_target[target] = depth
        return depth

    def _pop(self, key: Key) -> Tuple[Offer, int, float]:
        entry = self._pending.pop(key)
        self.by_target[entry[1]] -= 1
        return entry

    def complete(self, key: Key, now: float) -> Optional[Offer]:
        """Resolve *key* if pending, recording its sojourn; returns its
        offer, or ``None`` for unknown/duplicate completions."""
        if key not in self._pending:
            return None
        offer, _, admitted_at = self._pop(key)
        self.histogram.observe(max(0.0, now - admitted_at))
        return offer

    def expire(
        self, now: float, timeout: float, classify: Callable[[Key, int], str]
    ) -> List[Tuple[Key, Offer, int, str]]:
        """Drop and return every pending entry admitted more than
        *timeout* ago (oldest first) as ``(key, offer, target, reason)``.

        *classify* maps a dying key and its target to its expiry reason
        (why the entry never completed: ``shed-sibling`` /
        ``dead-target`` / ``pending-timeout``); each reason is counted
        in ``repro_load_expired_total``.  Expired sojourns are *not*
        recorded — the histogram reports completed offers only."""
        expired = sorted(
            (admitted_at, key)
            for key, (_, _, admitted_at) in self._pending.items()
            if now - admitted_at > timeout
        )
        reaped: List[Tuple[Key, Offer, int, str]] = []
        for _, key in expired:
            offer, target, _ = self._pop(key)
            reason = classify(key, target)
            self.expired[reason] += 1
            reaped.append((key, offer, target, reason))
        return reaped

    def admissions(self) -> Iterator[Tuple[int, float]]:
        """``(target, admitted_at)`` per pending entry."""
        for _, target, admitted_at in self._pending.values():
            yield target, admitted_at

    # ------------------------------------------------------------------
    def expired_by_reason(self) -> Dict[str, int]:
        """Reap counts per expiry reason (summary-block form)."""
        return {
            str(reason): int(count)
            for reason, count in sorted(self.expired.items())
        }

    def percentiles(self) -> dict:
        """The summary block's latency row: completed-offer sojourn
        p50/p95/p99 (``None`` until anything completes)."""
        return {
            "count": self.histogram.count,
            "p50": self.histogram.percentile(50.0),
            "p95": self.histogram.percentile(95.0),
            "p99": self.histogram.percentile(99.0),
        }
