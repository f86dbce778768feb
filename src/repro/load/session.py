"""The load session: one traffic model wired end to end.

:class:`LoadSession` owns the whole pipeline for one run —

    generator → popularity → dispatch → admission → interval supply
              → ``submit(pid, interval)`` → (detections) → completion

— against an abstract *submit* callback and the common clock surface,
so the identical session drives a live :class:`~repro.net.cluster.LocalCluster`
(submit = ``NodeRuntime.offer_local``, completions fed from root
detection records) and a virtual-time simulator sweep (submit = a
:class:`~repro.detect.centralized.CentralizedSinkCore` offer, completions
synchronous; see :mod:`repro.load.simload`).

**What an offer is.**  The cluster's workload is an interval script —
per-node local-predicate interval streams captured from a reference
simulator run, which is the only way to get causally-overlapping
intervals without re-simulating message waves.  The traffic plane keeps
that: an admitted offer consumes the *next scripted interval* of its
dispatched target, so traffic shape (pacing, skew, routing, shedding)
varies freely while every admitted interval stays causally valid.
:class:`IntervalSupply` makes the finite script inexhaustible by
cycling it with vector-clock shifts (cycle *c* adds ``c·(max_vc+1)``
componentwise), which preserves all intra-cycle causal relations and
makes cross-cycle pairs strictly ordered — prunable, never falsely
overlapping.

**Reference oracle.**  Because admission records the exact admitted
order — as targets only; each target's *k*-th interval is a pure
function of the supply (:meth:`IntervalSupply.interval_at`) — the
session can replay precisely the admitted subset through the
centralized sink detector (reference [12]) and compare solution
signatures against the live root detections — the reference-match
check that holds *under shedding*, not just for full replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detect.centralized import CentralizedSinkCore
from ..intervals import Interval
from ..obs.epochs import EpochLedger
from .admission import AdmissionController
from .dispatch import DISPATCH_POLICIES, LoadBalancer, make_policy
from .generators import ClosedLoopGenerator, Offer, OpenLoopGenerator
from .latency import LatencyStore
from .popularity import ZipfSampler

__all__ = ["LoadSpec", "IntervalSupply", "LoadSession", "solution_keyset"]

Key = Tuple[int, int]


@dataclass(frozen=True)
class LoadSpec:
    """Everything that shapes a traffic run (picklable, hashable)."""

    #: ``"open"`` (rate-driven) or ``"closed"`` (user-driven)
    mode: str = "open"
    #: open loop: offered load, offers/second
    rate: float = 200.0
    #: open loop: arrival model; Poisson is the only one.  The field
    #: stays because callers still pass it (``benchmarks/e2e/live.py``
    #: among them).
    arrival: str = "poisson"
    #: closed loop: virtual user count; a session refuses fewer users
    #: than processes (one epoch stride)
    users: int = 8
    #: closed loop: mean think seconds between a resolution and the
    #: user's next offer
    think_time: float = 0.05
    #: total offers to issue before the generator stops
    total_offers: int = 200
    #: popularity skew exponent (0 = uniform)
    zipf_s: float = 1.1
    #: dispatch policy name (see :mod:`repro.load.dispatch`)
    dispatch: str = "round_robin"
    #: explicit per-target weights for ``weighted`` dispatch, aligned to
    #: sorted pids (None = the Zipf pmf)
    weights: Optional[Tuple[float, ...]] = None
    #: admission high watermark on cluster-wide outstanding offers
    max_outstanding: int = 64
    #: admission low watermark (None = ``max_outstanding // 2``)
    resume_outstanding: Optional[int] = None
    #: what saturation does to an offer: ``"shed"`` is the only policy.
    #: The field stays because callers still pass it
    #: (``benchmarks/e2e/live.py`` among them).
    policy: str = "shed"
    #: abandon admitted offers undetected after this many seconds (what
    #: keeps closed-loop users from deadlocking on a shed-broken epoch)
    pending_timeout: float = 5.0
    #: seconds between session start and the first arrival
    start_delay: float = 0.2

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError(f"load mode must be 'open' or 'closed', got {self.mode!r}")
        if self.arrival != "poisson":
            raise ValueError(f"arrival must be 'poisson', got {self.arrival!r}")
        if self.dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"dispatch must be one of {sorted(DISPATCH_POLICIES)}, got {self.dispatch!r}"
            )
        if self.policy != "shed":
            raise ValueError(f"policy must be 'shed', got {self.policy!r}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.total_offers < 1:
            raise ValueError("total_offers must be >= 1")
        if self.think_time <= 0 or self.pending_timeout <= 0:
            raise ValueError("think_time and pending_timeout must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if (
            self.resume_outstanding is not None
            and not 0 < self.resume_outstanding <= self.max_outstanding
        ):
            raise ValueError(
                "resume_outstanding must satisfy 0 < resume <= max_outstanding"
            )
        if self.start_delay < 0:
            raise ValueError("start_delay must be >= 0")

    @property
    def resolved_resume(self) -> int:
        return self.resume_outstanding or max(1, self.max_outstanding // 2)

    def check_stride(self, processes: int) -> None:
        """Refuse a spec that can never complete an epoch on
        *processes* processes: ``Definitely(Phi)`` completes offers one
        whole epoch (one interval per process) at a time."""
        if self.max_outstanding < processes:
            raise ValueError(
                f"load.max_outstanding ({self.max_outstanding}) must cover at "
                f"least one epoch stride ({processes} processes): a tighter "
                "gate can only shed or time out"
            )
        if self.mode == "closed" and self.users < processes:
            raise ValueError(
                f"load.users ({self.users}) must cover at least one epoch "
                f"stride ({processes} processes): closed-loop users hold one "
                "offer each at a time, so fewer users than processes can never "
                "complete an epoch before pending_timeout abandons its offers"
            )

    def check_homes(self, pids: Sequence[int], homes: Sequence[int]) -> None:
        """Refuse a closed loop under ``affinity`` dispatch whose users'
        *homes* (:func:`~repro.load.generators.user_homes`) leave a
        process out: that process never receives an offer, so no epoch
        can complete."""
        if self.mode != "closed" or self.dispatch != "affinity":
            return
        covered = set(homes)
        uncovered = [pid for pid in sorted(pids) if pid not in covered]
        if uncovered:
            raise ValueError(
                f"load.dispatch: closed-loop affinity homes no user on "
                f"processes {uncovered}: they never receive an offer, so no "
                "epoch can complete"
            )


class IntervalSupply:
    """Unbounded per-node interval streams from a finite script.

    Each node cycles its scripted stream independently; replay cycle
    ``c`` shifts every vector timestamp by ``c * (global_max_vc + 1)``
    componentwise and every sequence number by ``c`` stream lengths.
    Within a cycle all original causal relations (and therefore all
    overlaps) are preserved; across cycles every pair is strictly
    ordered, so recycled intervals can never fake an overlap — the
    detector prunes them exactly like any other stale head.
    """

    def __init__(self, streams: Dict[int, List[Interval]]) -> None:
        if not streams or any(not stream for stream in streams.values()):
            raise ValueError("interval supply needs a non-empty stream per node")
        self._base = {pid: list(stream) for pid, stream in streams.items()}
        his = [iv.hi for stream in self._base.values() for iv in stream]
        self._shift = np.max(np.stack(his), axis=0).astype(np.int64) + 1
        self._stride = {
            pid: max(iv.seq for iv in stream) + 1
            for pid, stream in self._base.items()
        }
        self._taken: Dict[int, int] = {pid: 0 for pid in self._base}

    @property
    def pids(self) -> List[int]:
        return sorted(self._base)

    def next_for(self, pid: int) -> Interval:
        interval = self.interval_at(pid, self._taken[pid])
        self._taken[pid] += 1
        return interval

    def interval_at(self, pid: int, k: int) -> Interval:
        """*pid*'s *k*-th interval (0-based) — what the *k*-th
        :meth:`next_for` call returns, computed without touching any
        state, so a replay can regenerate what was handed out."""
        stream = self._base[pid]
        cycle, pos = divmod(k, len(stream))
        interval = stream[pos]
        if cycle == 0:
            return interval
        shift = self._shift * cycle
        # The sums are fresh arrays: read-only, ``freeze`` passes them
        # through instead of copying them again.
        lo = interval.lo + shift
        hi = interval.hi + shift
        lo.setflags(write=False)
        hi.setflags(write=False)
        return Interval(
            owner=interval.owner,
            seq=interval.seq + cycle * self._stride[pid],
            lo=lo,
            hi=hi,
            members=interval.members,
        )


def solution_keyset(solution) -> frozenset:
    """A solution's identity as the set of concrete interval keys it
    consumed — comparable across the hierarchical root and the
    centralized sink regardless of aggregation shape."""
    return frozenset(
        leaf.key()
        for head in solution.heads.values()
        for leaf in head.concrete_leaves()
    )


class LoadSession:
    """One traffic run: generator, dispatch, admission, accounting.

    Parameters
    ----------
    clock:
        Anything with the common clock surface (``now``, ``rng(name)``,
        ``schedule``, ``schedule_at``, ``emit``) — an
        :class:`~repro.net.clock.AsyncClock` or a
        :class:`~repro.sim.kernel.Simulator`.
    load:
        The :class:`LoadSpec`.
    streams:
        Per-node scripted interval streams (``IntervalScript.streams``).
    submit:
        ``submit(pid, interval)`` — deliver one admitted interval to the
        target's detector input.
    registry:
        The :class:`~repro.obs.MetricsRegistry` receiving the
        ``repro_load_*`` family.
    alive / congestion_probe:
        Optional callables the cluster wires: node liveness for the
        balancer, and "has this node a congested uplink right now" for
        admission (backed by ``Transport.congested_peers()``).
    """

    SWEEP_INTERVAL = 0.05

    def __init__(
        self,
        clock,
        load: LoadSpec,
        streams: Dict[int, List[Interval]],
        submit: Callable[[int, Interval], None],
        *,
        registry,
        alive: Optional[Callable[[int], bool]] = None,
        congestion_probe: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self.clock = clock
        self.load = load
        self.submit = submit
        self.supply = IntervalSupply(streams)
        self.pids = self.supply.pids
        load.check_stride(len(self.pids))
        weights = None
        if load.dispatch == "weighted":
            if load.weights is not None:
                if len(load.weights) != len(self.pids):
                    raise ValueError(
                        f"weights must have one entry per process "
                        f"({len(self.pids)}), got {len(load.weights)}"
                    )
                weights = dict(zip(self.pids, load.weights))
            else:
                weights = ZipfSampler(len(self.pids), load.zipf_s).weights_for(self.pids)
        self.balancer = LoadBalancer(
            make_policy(load.dispatch, weights=weights), self.pids, alive=alive
        )
        self.admission = AdmissionController(
            clock,
            registry,
            max_outstanding=load.max_outstanding,
            resume_outstanding=load.resolved_resume,
            congestion_probe=congestion_probe,
        )
        self.latency = LatencyStore(registry)
        self._alive = alive
        # The epoch ledger: every offer's epoch tracked from intake to
        # solution-or-stranded (see :mod:`repro.obs.epochs`).  Stride is
        # the process count — one interval per process per solution.
        self.epochs = EpochLedger(
            registry, stride=len(self.pids), total_offers=load.total_offers
        )
        self._completed_counter = registry.counter(
            "repro_load_completed_total",
            "Admitted offers resolved by a detection.",
        )
        self._abandoned_counter = registry.counter(
            "repro_load_abandoned_total",
            "Admitted offers that timed out undetected.",
        )
        if load.mode == "open":
            self.generator = OpenLoopGenerator(
                clock,
                self.pids,
                self._intake,
                rate=load.rate,
                total_offers=load.total_offers,
                zipf_s=load.zipf_s,
            )
        else:
            self.generator = ClosedLoopGenerator(
                clock,
                self.pids,
                self._intake,
                users=load.users,
                total_offers=load.total_offers,
                think_time=load.think_time,
                zipf_s=load.zipf_s,
            )
            load.check_homes(self.pids, [user.home for user in self.generator.users])
        # admission order as targets: the reference replay regenerates
        # each target's intervals from the supply (``interval_at``)
        self._admitted_log: List[int] = []
        self._sweep_handle: Optional[object] = None
        self._stopped = False
        # summary tallies (ints, independent of metric internals)
        self.counts = {
            "offered": 0,
            "admitted": 0,
            "shed": 0,
            "completed": 0,
            "abandoned": 0,
        }
        self._shed_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.generator.start(at=self.clock.now + self.load.start_delay)
        self._schedule_sweep()
        self.clock.emit(
            "load_started",
            mode=self.load.mode,
            total_offers=self.load.total_offers,
        )

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.generator.stop()
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    # ------------------------------------------------------------------
    # the offer path
    # ------------------------------------------------------------------
    def _epoch_id(self, offer: Offer) -> int:
        """The offer's epoch — trusted from the generator tag, derived
        from the index for hand-built offers that never saw one."""
        return offer.epoch if offer.epoch >= 0 else self.epochs.epoch_for_offer(offer.index)

    def _intake(self, offer: Offer) -> None:
        if self._stopped:
            return
        self.counts["offered"] += 1
        epoch = self._epoch_id(offer)
        self.epochs.note_offered(epoch, offer.index, self.clock.now)
        target = self.balancer.route(offer, self.latency.by_target)
        if target is None:
            self.admission.offered["none"] += 1
            self.admission.count_shed("no-target")
            self._count_shed("no-target")
            self.epochs.note_shed(epoch, offer.index, "no-target", self.clock.now)
            self._resolve(offer, "shed")
        elif self.admission.decide(target, self.latency.outstanding):
            self._admit(offer, epoch, target)
        else:
            reason = self.admission.shed_reason
            self._count_shed(reason)
            self.epochs.note_shed(
                epoch, offer.index, reason, self.clock.now, target=target
            )
            self._resolve(offer, "shed")

    def _admit(self, offer: Offer, epoch: int, target: int) -> None:
        interval = self.supply.next_for(target)
        key = (interval.owner, interval.seq)
        now = self.clock.now
        depth = self.latency.admit(key, offer, target, now)
        self.epochs.note_admitted(epoch, offer.index, key, target, now, depth)
        self._admitted_log.append(target)
        self.counts["admitted"] += 1
        self.admission.count_admit(target)
        self.admission.set_outstanding(self.latency.outstanding)
        self.submit(target, interval)

    def _count_shed(self, reason: str) -> None:
        self.counts["shed"] += 1
        self._shed_by_reason[reason] = self._shed_by_reason.get(reason, 0) + 1

    def _resolve(self, offer: Offer, outcome: str) -> None:
        self.generator.offer_resolved(offer, outcome)

    # ------------------------------------------------------------------
    # completions
    # ------------------------------------------------------------------
    def notify_detection(self, record) -> None:
        """Feed one root detection (a ``DetectionRecord`` or bare
        ``Solution``): every concrete interval it consumed completes the
        matching in-flight offer."""
        solution = getattr(record, "solution", record)
        now = self.clock.now
        for head in solution.heads.values():
            for leaf in head.concrete_leaves():
                key = (leaf.owner, leaf.seq)
                offer = self.latency.complete(key, now)
                if offer is None:
                    continue
                self.counts["completed"] += 1
                self._completed_counter.inc()
                self.epochs.note_completed(key, now)
                self._resolve(offer, "completed")
        self.admission.set_outstanding(self.latency.outstanding)

    def _schedule_sweep(self) -> None:
        self._sweep_handle = self.clock.schedule(self.SWEEP_INTERVAL, self._sweep)

    def _expiry_cause(self, key: Key, target: int) -> str:
        """Why a pending entry is dying: dead target beats shed sibling
        beats plain pending-timeout (the :class:`LatencyStore` expiry
        classifier)."""
        target_alive = self._alive(target) if self._alive is not None else True
        return self.epochs.expiry_cause(key, target_alive=target_alive)

    def _sweep(self) -> None:
        if self._stopped:
            return
        now = self.clock.now
        self.epochs.tick(now, self.latency.admissions())
        expired = self.latency.expire(now, self.load.pending_timeout, self._expiry_cause)
        for key, offer, target, reason in expired:
            self.counts["abandoned"] += 1
            self._abandoned_counter.inc()
            self.epochs.note_abandoned(key, reason, now, target)
            self.clock.emit("load_offer_abandoned", node=target, reason=reason)
            self._resolve(offer, "abandoned")
        if expired:
            self.admission.set_outstanding(self.latency.outstanding)
        if not self.done:
            self._schedule_sweep()
        else:
            self._sweep_handle = None
            self.clock.emit("load_finished", **{k: v for k, v in self.counts.items()})

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return self.latency.outstanding

    @property
    def done(self) -> bool:
        """Every offer issued and resolved: nothing outstanding, nothing
        left for the generator to emit."""
        return self.generator.done and self.latency.outstanding == 0

    def summary(self) -> dict:
        """The run's ``load`` block (mirrors the cluster summary's
        ``wire`` block): decision counts plus sojourn percentiles."""
        return {
            "mode": self.load.mode,
            "dispatch": self.load.dispatch,
            "policy": self.load.policy,
            "zipf_s": self.load.zipf_s,
            "offered": self.counts["offered"],
            "admitted": self.counts["admitted"],
            "shed": self.counts["shed"],
            "shed_by_reason": dict(sorted(self._shed_by_reason.items())),
            "completed": self.counts["completed"],
            "abandoned": self.counts["abandoned"],
            "expired_by_reason": self.latency.expired_by_reason(),
            "outstanding": self.latency.outstanding,
            "sojourn": self.latency.percentiles(),
            "epochs": self.epochs.summary(),
        }

    def epoch_of(self, key: Key) -> Optional[int]:
        """The epoch an admitted interval key belongs to (rides the
        frame ``_meta`` sidecar next to span coordinates)."""
        return self.epochs.epoch_of(key)

    def admitted_by_target(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for target in self._admitted_log:
            counts[target] = counts.get(target, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # reference oracle
    # ------------------------------------------------------------------
    def reference_solutions(self) -> list:
        """Replay exactly the admitted offers, in admission order,
        through the centralized sink detector [12] — the ground truth
        for what the live hierarchy should have detected."""
        sink = CentralizedSinkCore(self.pids[0], self.pids)
        taken = dict.fromkeys(self.pids, 0)
        solutions = []
        for pid in self._admitted_log:
            solutions.extend(sink.offer(pid, self.supply.interval_at(pid, taken[pid])))
            taken[pid] += 1
        return solutions

    def reference_match(
        self, detections: Sequence, *, allow_prefix: bool = False
    ) -> bool:
        """Do the live detections match the centralized replay of the
        admitted subset?  Compared as index-ordered concrete-interval
        key sets, so aggregation shape and wall timing drop out.

        ``allow_prefix`` relaxes equality to "the live detections are a
        prefix of the reference" — the sound check when a node died
        mid-run: its admitted-but-unreported intervals still reach the
        centralized replay, so the reference can run a few solutions
        past where the live tree stopped, but everything the live tree
        *did* detect must agree in content and order."""
        live = [
            solution_keyset(getattr(d, "solution", d))
            for d in sorted(
                detections, key=lambda d: getattr(d, "solution", d).index
            )
        ]
        reference = [
            solution_keyset(s)
            for s in sorted(self.reference_solutions(), key=lambda s: s.index)
        ]
        if allow_prefix:
            return live == reference[: len(live)]
        return live == reference
