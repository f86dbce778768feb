"""Offer generators: the open- and closed-loop traffic models.

Both generators emit :class:`Offer` records into an *intake* callback
(the :class:`~repro.load.session.LoadSession`), which routes, admits and
eventually resolves each offer.  They are written against the common
clock surface shared by the socket plane's
:class:`~repro.net.clock.AsyncClock` and the virtual-time
:class:`~repro.sim.kernel.Simulator` — ``now``, ``schedule_at``,
``rng(name)`` — so the same traffic model drives a live cluster and an
offline :class:`~repro.experiments.parallel.ShardedRunner` sweep.

* :class:`OpenLoopGenerator` — Poisson arrivals at a configured rate
  regardless of completions (the saturation-study model: offered load is
  the independent variable).  The whole arrival schedule — one
  exponential gap (:func:`~repro.workload.distributions.exponential_gap`)
  per offer — is precomputed from one named rng stream
  (``load-arrivals``), making the *offer schedule* a pure function of
  the seed: the determinism gate's anchor.
* :class:`ClosedLoopGenerator` — ``users`` virtual users; each thinks
  (exponential, per-user stream ``load-think-N``), submits one offer and
  only after that offer resolves (completed, shed or abandoned) thinks
  again.  Offered load self-limits to user-count × service rate — the
  interactive-fleet model, and the one that cannot overrun the cluster
  no matter how slow detection gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..workload.distributions import exponential_gap

__all__ = ["Offer", "OpenLoopGenerator", "ClosedLoopGenerator"]


@dataclass
class Offer:
    """One unit of offered work: "raise a local predicate somewhere"."""

    index: int  #: global offer number (issue order)
    user: int  #: virtual user id (-1 for open-loop arrivals)
    issued_at: float  #: clock time the generator emitted the offer
    #: Epoch id, assigned at the source as ``index // len(pids)``.  A
    #: ``Definitely(Φ)`` solution needs one interval per process, so
    #: consecutive stride-of-n offers form the natural goodput unit;
    #: being a pure function of the (seeded) offer index, the id is
    #: identical across sharded workers and sim↔socket scopes.
    epoch: int = -1


class OpenLoopGenerator:
    """Poisson arrivals at ``rate``, blind to completions."""

    def __init__(
        self,
        clock,
        pids: Sequence[int],
        intake: Callable[[Offer], None],
        *,
        rate: float,
        total_offers: int,
    ) -> None:
        if rate <= 0:
            raise ValueError("open-loop rate must be positive")
        if total_offers < 1:
            raise ValueError("total_offers must be >= 1")
        self.clock = clock
        self.pids = sorted(pids)
        self.intake = intake
        self.total_offers = total_offers
        self._mean_gap = 1.0 / rate
        self._plan: Optional[List[Tuple[float, int]]] = None
        self._handle: Optional[object] = None
        self._base = 0.0
        self._emitted = 0
        self._stopped = False

    # ------------------------------------------------------------------
    def plan(self) -> List[Tuple[float, int]]:
        """The full arrival schedule as ``(offset_s, epoch)`` pairs —
        computed once, deterministically, from the clock's
        ``load-arrivals`` stream.  Offer *i*'s epoch is ``i // n`` for
        ``n`` processes (see :class:`Offer`)."""
        if self._plan is None:
            arrivals = self.clock.rng("load-arrivals")
            stride = len(self.pids)
            t = 0.0
            schedule: List[Tuple[float, int]] = []
            for index in range(self.total_offers):
                t += exponential_gap(arrivals, self._mean_gap)
                schedule.append((t, index // stride))
            self._plan = schedule
        return self._plan

    def start(self, at: float = 0.0) -> None:
        """Walk the plan from clock time *at*.  One timer is pending at a
        time: it fires at the next offer's due time and emits every offer
        due by then, in plan order — the offers a loop iteration's worth
        of per-offer timers would have run back to back."""
        self.plan()
        self._base = at
        self._arm()

    def _arm(self) -> None:
        if self._stopped or self._emitted >= self.total_offers:
            self._handle = None
            return
        due = self._base + self._plan[self._emitted][0]
        self._handle = self.clock.schedule_at(due, self._fire)

    def _fire(self) -> None:
        plan, base, now = self._plan, self._base, self.clock.now
        # The offer this timer was armed for is due even if the clock
        # reads a hair early; every later one only if it is due by now.
        self._emit()
        while (
            not self._stopped
            and self._emitted < self.total_offers
            and base + plan[self._emitted][0] <= now
        ):
            self._emit()
        self._arm()

    def _emit(self) -> None:
        index = self._emitted
        self._emitted += 1
        self.intake(
            Offer(
                index=index,
                user=-1,
                issued_at=self.clock.now,
                epoch=self._plan[index][1],
            )
        )

    def offer_resolved(self, offer: Offer, outcome: str) -> None:
        """Open loop ignores completions — arrivals are unconditional."""

    @property
    def done(self) -> bool:
        return self._stopped or self._emitted >= self.total_offers

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


@dataclass
class _User:
    uid: int
    in_flight: bool = False


class ClosedLoopGenerator:
    """N virtual users: think → offer → wait for resolution → repeat."""

    def __init__(
        self,
        clock,
        pids: Sequence[int],
        intake: Callable[[Offer], None],
        *,
        users: int,
        total_offers: int,
        think_time: float = 0.05,
    ) -> None:
        if users < 1:
            raise ValueError("closed loop needs at least one user")
        if total_offers < 1:
            raise ValueError("total_offers must be >= 1")
        if think_time <= 0:
            raise ValueError("think_time must be positive")
        self.clock = clock
        self.pids = sorted(pids)
        self.intake = intake
        self.total_offers = total_offers
        self.think_time = think_time
        self.users = [_User(uid=u) for u in range(users)]
        self._issued = 0
        self._stopped = False
        #: uid -> the user's pending think timer; a user has at most one.
        self._handles: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        for user in self.users:
            self._schedule_think(user, base=at)

    def _schedule_think(self, user: _User, base: Optional[float] = None) -> None:
        if self._stopped or self._issued >= self.total_offers:
            return
        # Per-user rng stream: each user's think sequence is fixed by
        # the seed alone, independent of completion interleaving.
        gap = float(self.clock.rng(f"load-think-{user.uid}").exponential(self.think_time))
        at = (base if base is not None else self.clock.now) + gap
        self._handles[user.uid] = self.clock.schedule_at(
            at, lambda u=user: self._issue(u)
        )

    def _issue(self, user: _User) -> None:
        self._handles.pop(user.uid, None)
        if self._stopped or self._issued >= self.total_offers or user.in_flight:
            return
        index = self._issued
        self._issued += 1
        user.in_flight = True
        self.intake(
            Offer(
                index=index,
                user=user.uid,
                issued_at=self.clock.now,
                epoch=index // len(self.pids),
            )
        )

    def offer_resolved(self, offer: Offer, outcome: str) -> None:
        """The session resolved one of our offers (``completed`` /
        ``shed`` / ``abandoned``): release the user to think again."""
        user = self.users[offer.user]
        user.in_flight = False
        self._schedule_think(user)

    @property
    def done(self) -> bool:
        """All offers issued and no user mid-flight (a user whose offer
        was admitted counts as in flight until the session resolves
        it)."""
        if self._stopped:
            return True
        return self._issued >= self.total_offers and not any(
            u.in_flight for u in self.users
        )

    def stop(self) -> None:
        self._stopped = True
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()
