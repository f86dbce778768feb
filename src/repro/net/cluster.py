"""Launching a whole detection tree as a localhost cluster.

:class:`LocalCluster` builds one :class:`~repro.net.runtime.NodeRuntime`
per tree node inside a single asyncio loop — separate sockets, separate
heartbeats, separate detector state, shared wall clock, and **separate
telemetry**: every node gets a :class:`~repro.net.clock.ClockScope`, the
private registry/span-tracker/event-log island a real OS process would
hold.  The whole-cluster view is *reconstructed* the way a fleet
monitor would build it — :attr:`LocalCluster.telemetry` scrapes every
island (:func:`repro.obs.cluster.scrape_local`), merges the registries
and stitches the per-node span trees back into cross-node alarm traces
(:class:`repro.obs.cluster.TelemetryAggregator`), so an alarm is still
explained down to leaf intervals on other nodes.

The workload is an *interval script* — per-node interval streams
captured from a reference simulator run
(:func:`~repro.net.script.simulation_script`) — so a cluster run is
directly comparable to the simulation that produced the script: same
trees, same intervals, and (by the detection core's interleaving
confluence) the same solutions.

Fault tolerance is exercised for real: :meth:`kill_node` stops a node's
role and sockets mid-run; surviving neighbours' transports see their
redial refused (evidence — milliseconds) or, for a failure that leaves
the listener up, their heartbeats go unanswered (silence — the
``heartbeat`` timeout); either way the
:class:`~repro.fault.HeartbeatMonitor` reports the suspicion, and the
stock repair machinery
(:func:`repro.topology.repair.apply_repair`) rewires the tree.  The only
network-specific twist is :class:`_ClusterCoordinator`: on a wall clock
a loaded machine can stall past a heartbeat timeout, so a suspicion
against a live node is logged and forgiven rather than treated as a
configuration bug like the simulator does.

An optional admin endpoint (newline-delimited JSON over TCP) powers the
``repro-cluster status`` / ``kill-node`` commands against a running
cluster, plus the observability plane's scrape commands —
``telemetry`` (per-node registry dumps), ``spans`` (per-node span
tables) and ``eventlog`` (per-node + cluster event streams) — which
``repro-cluster watch`` and :class:`repro.obs.cluster.ClusterScraper`
poll.

An optional :class:`~repro.monitor.spec.SLOSpec` watchdog checks
detection-latency p99 and the stranded-epoch rate every
:data:`SLO_CHECK_INTERVAL` seconds (and once more at :meth:`stop`) and
emits a latched ``slo_breach`` event on violation.  Crashes, repairs,
breaches and detections all land on the cluster log, which
``repro-cluster run --jsonl`` dumps and ``repro-cluster postmortem``
reads back (:func:`repro.obs.export.postmortem`).
"""

from __future__ import annotations

import asyncio
import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..detect.roles import DetectionRecord
from ..fault.coordinator import RepairCoordinator
from ..load import LoadSession, LoadSpec, user_homes
from ..monitor.spec import HeartbeatSpec, SLOSpec
from ..obs.cluster import ClusterView, TelemetryAggregator, scrape_local
from ..obs.epochs import StrandingWatchdog
from ..obs.export import event_dict
from ..obs.registry import count_error
from ..topology.spanning_tree import SpanningTree
from .clock import AsyncClock, ClockScope, named_rng
from .codec import CODEC_VERSION
from .runtime import NodeRuntime
from .script import IntervalScript, simulation_script
from .transport import LoopbackHub, LoopbackTransport, TcpTransport

__all__ = ["ClusterSpec", "LocalCluster", "REPAIR_DURATION_BUCKETS", "SLO_CHECK_INTERVAL"]

#: Wall-second buckets for plan→application repair durations.
REPAIR_DURATION_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, float("inf"),
)

#: Wall seconds between SLO watchdog checks.
SLO_CHECK_INTERVAL = 0.5


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and timing of a localhost cluster."""

    nodes: int = 7
    degree: int = 2
    seed: int = 1
    transport: str = "tcp"  # "tcp" | "loopback"
    host: str = "127.0.0.1"
    #: wall-clock heartbeat timing; the default suspects a *silent*
    #: peer (partition, hung process, dead host) within ~2 s while
    #: tolerating multi-hundred-ms scheduler stalls.  A crash that
    #: closes the peer's listener does not wait for it: the refused
    #: redial is reported at once (see :mod:`repro.net.transport`).
    heartbeat: HeartbeatSpec = field(
        default_factory=lambda: HeartbeatSpec(period=0.25, loss_tolerance=7)
    )
    repair_latency: float = 0.05
    #: frame encoding.  ``"binary"`` is the only wire there is; the
    #: field stays because callers still pass it
    #: (``benchmarks/e2e/live.py`` among them).
    wire: str = "binary"
    #: reference-workload epochs (per-node interval count driver)
    epochs: int = 4
    #: probability an epoch is a global occurrence (a detection); the
    #: default 1.0 keeps every kill test observable, while rates < 1
    #: produce intervals that never join a solution
    sync_prob: float = 1.0
    #: wall seconds between consecutive offers of one node's stream
    interval_spacing: float = 0.02
    #: wall seconds between cluster start and the first offer
    start_delay: float = 0.2
    #: traffic plane (see :mod:`repro.load`): when set, offers come from
    #: a :class:`~repro.load.LoadSession` — generator → dispatch →
    #: admission — instead of the fixed-spacing script replay
    load: Optional[LoadSpec] = None
    #: TCP port for the admin endpoint (None disables it)
    admin_port: Optional[int] = None
    #: service-level thresholds the watchdog checks (None disables it)
    slo: Optional[SLOSpec] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.transport not in ("tcp", "loopback"):
            raise ValueError(f"transport must be 'tcp' or 'loopback', got {self.transport!r}")
        if self.wire != "binary":
            raise ValueError(f"wire must be 'binary', got {self.wire!r}")
        if not 0.0 <= self.sync_prob <= 1.0:
            raise ValueError("sync_prob must be in [0, 1]")
        if self.load is not None:
            self.load.check_stride(self.nodes)
            # The homes LocalCluster's session will draw, drawn here so
            # a refused spec is refused before any socket opens.
            pids = range(self.nodes)
            popularity = named_rng(self.seed, "load-popularity")
            self.load.check_homes(
                pids, user_homes(popularity, pids, self.load.users, self.load.zipf_s)
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """The spec a JSON object describes (``repro-cluster run --spec``).

        Nested ``heartbeat``, ``load`` and ``slo`` objects become their
        specs, and a list becomes the ``weights`` tuple.  A missing key
        takes the dataclass default.  An unknown key or a value of the
        wrong JSON type raises :class:`ValueError` naming its dotted
        path (``load.rat``); ranges are the specs' own checks.
        """
        return _from_json(cls, data, "")

    def to_dict(self) -> dict:
        """Every field as parsed JSON (tuples are lists);
        :meth:`from_dict` inverts it."""
        return json.loads(json.dumps(asdict(self)))

    def tree(self) -> SpanningTree:
        """Breadth-first ``degree``-ary tree over ``nodes`` nodes."""
        parent: Dict[int, Optional[int]] = {0: None}
        for i in range(1, self.nodes):
            parent[i] = (i - 1) // self.degree if self.degree > 1 else i - 1
        return SpanningTree(0, parent)


#: how a strict-load error names the JSON type a field needs
_JSON_TYPES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object",
}


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _from_json(hint, value, path: str):
    """*value* (parsed JSON) as the type *hint* names, strictly."""
    where = f"{path}: " if path else ""
    if typing.get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    want = list if origin is tuple else dict if is_dataclass(hint) else hint
    if want is float and type(value) is int:
        value = float(value)
    if type(value) is not want:  # a JSON true is no integer
        shown = _JSON_TYPES[type(value)] if type(value) in (list, dict) else json.dumps(value)
        raise ValueError(f"{where}expected {_JSON_TYPES[want]}, got {shown}")
    if origin is tuple:  # Tuple[X, ...]
        return tuple(_from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(hint):
        return value
    for key in value:
        if key not in hint.__dataclass_fields__:
            raise ValueError(f"{_dotted(path, key)}: unknown key")
    hints = typing.get_type_hints(hint)
    kwargs = {k: _from_json(hints[k], v, _dotted(path, k)) for k, v in value.items()}
    try:
        return hint(**kwargs)
    except ValueError as exc:  # the spec's own range checks
        raise ValueError(f"{where}{exc}") from None


class _ClusterCoordinator(RepairCoordinator):
    """Repair coordination adapted to wall-clock reality.

    Differences from the simulator coordinator:

    * a suspicion against a live node is *forgiven* (event
      ``false_suspicion``) instead of raising — on real machines a GC
      pause or CI stall can outlast any sane heartbeat timeout — and
      the reporter's monitor is told to watch that peer afresh;
    * a plan still waiting out its repair latency when
      :meth:`LocalCluster.stop` is called is abandoned with the nodes
      it would have rewired;
    * once a plan is applied, survivors drop the dead peer's transport
      link so writer tasks stop redialling a closed listener;
    * repair milestones feed the observability plane: each plan's
      plan→application wall duration lands in the cluster registry's
      ``repro_cluster_repair_duration_seconds`` histogram, and a
      ``repair_applied`` event (paired with ``repair_planned`` by
      ``repro-cluster postmortem``) is emitted.
    """

    def __init__(self, *args, cluster: "LocalCluster", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cluster = cluster
        self._planned_at: Dict[int, float] = {}
        #: failed pid -> wall seconds from its plan to its application
        #: (``benchmarks/e2e`` reads it for the crash workload)
        self.durations: Dict[int, float] = {}

    def report_failure(self, failed: int, reporter: int) -> None:
        if failed not in self._handled and self._is_alive(failed):
            self.sim.emit("false_suspicion", node=reporter, suspect=failed)
            # Forgiving must let the reporter suspect *failed* again, or
            # its later real crash would never be reported.
            monitor = getattr(self.roles.get(reporter), "monitor", None)
            if monitor is not None:
                monitor.forgive(failed)
            return
        if failed not in self._planned_at:
            self._planned_at[failed] = self.sim.now
        super().report_failure(failed, reporter)

    def _apply(self, plan) -> None:
        if self.cluster._stopped:
            return
        super()._apply(plan)
        self.cluster._disconnect(plan.failed)
        duration = self.sim.now - self._planned_at.get(plan.failed, self.sim.now)
        self.durations[plan.failed] = duration
        self.sim.telemetry.registry.histogram(
            "repro_cluster_repair_duration_seconds",
            "Wall seconds from a repair plan to its application.",
            REPAIR_DURATION_BUCKETS,
        ).observe(duration)
        self.sim.emit(
            "repair_applied",
            node=plan.failed,
            failed=plan.failed,
            duration=round(duration, 6),
        )


class LocalCluster:
    """All nodes of one detection tree, in one process, on real (or
    loopback) transports."""

    def __init__(
        self, spec: ClusterSpec, *, script: Optional[IntervalScript] = None
    ) -> None:
        self.spec = spec
        self.tree = spec.tree()
        self.clock = AsyncClock(seed=spec.seed)
        self.script = script  # built lazily so loopback tests can inject
        self.detections: List[DetectionRecord] = []
        self.runtimes: Dict[int, NodeRuntime] = {}
        self.roles: Dict[int, object] = {}
        self.coordinator = _ClusterCoordinator(
            self.clock,
            self.tree,
            self.tree.as_graph(),
            self.roles,
            repair_latency=spec.repair_latency,
            is_alive=self.is_alive,
            cluster=self,
        )
        self._hub = LoopbackHub() if spec.transport == "loopback" else None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._offer_handles: List[object] = []
        #: transport teardowns started by :meth:`kill_node`, per victim;
        #: awaited (and their exceptions raised) by :meth:`stop`
        self._kill_tasks: Dict[int, asyncio.Task] = {}
        #: the teardown an admin ``stop`` command started; awaited (and
        #: its exception raised) by every later :meth:`stop`
        self._stop_task: Optional[asyncio.Task] = None
        self._started = False
        self._stopped = False
        self.scopes: Dict[int, ClockScope] = {}
        self._slo_handle: Optional[object] = None
        self._slo_latched: set = set()
        self._stranding_watchdog: Optional[StrandingWatchdog] = None
        #: the traffic plane, when ``spec.load`` asked for one
        self.load_session: Optional[LoadSession] = None

    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The *aggregated* cluster telemetry: every node's island
        scraped, merged and trace-stitched (see :meth:`view`).  Shaped
        like an ordinary :class:`~repro.obs.Telemetry`, so exporters and
        summaries read it unchanged."""
        return self.view().telemetry

    def view(self) -> ClusterView:
        """Scrape + fold the cluster's current observability state."""
        return TelemetryAggregator().fold(scrape_local(self))

    @property
    def log(self):
        """The whole-cluster event log (scoped clocks forward every
        node's events here)."""
        return self.clock.log

    def is_alive(self, pid: int) -> bool:
        runtime = self.runtimes.get(pid)
        return runtime is not None and runtime.alive

    def wire_summary(self) -> dict:
        """What actually moved on the wire: the codec version, the
        per-peer negotiated hellos (TCP only — loopback has no
        handshake) and the bytes-by-frame-type breakdown aggregated
        from every node's ``repro_net_bytes_total``."""
        negotiated: Dict[str, dict] = {}
        for runtime in self.runtimes.values():
            for peer, hello in getattr(
                runtime.transport, "negotiated", {}
            ).items():
                negotiated[str(peer)] = {"codec": hello["codec"]}
        bytes_by_type: Dict[str, int] = {}
        for scope in self.scopes.values():
            vec = scope.telemetry.registry.get("repro_net_bytes_total")
            for key, value in (dict(vec) if vec else {}).items():
                kind = key[1] if isinstance(key, tuple) else str(key)
                bytes_by_type[kind] = bytes_by_type.get(kind, 0) + int(value)
        return {
            "codec_version": CODEC_VERSION,
            "negotiated": dict(sorted(negotiated.items())),
            "bytes_by_type": dict(sorted(bytes_by_type.items())),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bring every node up, connect the mesh, start the workload."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        if self.script is None:
            self.script = simulation_script(
                self.tree,
                seed=self.spec.seed,
                epochs=self.spec.epochs,
                sync_prob=self.spec.sync_prob,
            )

        transports: Dict[int, object] = {}
        for pid in self.tree.nodes:
            # Each node records into its own telemetry island — the
            # deployment-realistic shape the observability plane scrapes.
            scope = self.clock.scope(pid)
            self.scopes[pid] = scope
            if self._hub is not None:
                transport = LoopbackTransport(pid, self._hub, scope)
            else:
                transport = TcpTransport(pid, scope, host=self.spec.host)
            transports[pid] = transport
            self.runtimes[pid] = NodeRuntime(
                pid,
                transport,
                scope,
                parent=self.tree.parent_of(pid),
                children=self.tree.children(pid),
                level=self.tree.level(pid),
                heartbeat=self.spec.heartbeat,
                coordinator=self.coordinator,
                on_detection=self._on_detection,
            )
            self.roles[pid] = self.runtimes[pid].role

        for transport in transports.values():
            await transport.start()
        if self._hub is None:
            addresses = {pid: t.address for pid, t in transports.items()}
            for transport in transports.values():
                transport.set_peers(addresses)

        for runtime in self.runtimes.values():
            runtime.activate()
        if self.spec.load is not None:
            self._start_load()
        else:
            self._schedule_offers()
        if self.spec.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_admin, host=self.spec.host, port=self.spec.admin_port
            )
        if self.spec.slo is not None and self.spec.slo.enabled:
            self._slo_handle = self.clock.schedule(SLO_CHECK_INTERVAL, self._slo_tick)
        self.clock.emit("cluster_started", nodes=self.tree.n)

    def _schedule_offers(self) -> None:
        """Replay each node's interval stream in order, offers paced by
        ``interval_spacing`` from ``start_delay`` on."""
        for pid, stream in sorted(self.script.streams.items()):
            for j, interval in enumerate(stream):
                at = self.spec.start_delay + j * self.spec.interval_spacing
                self._offer_handles.append(
                    self.clock.schedule_at(
                        at,
                        lambda p=pid, iv=interval: self.runtimes[p].offer_local(iv),
                    )
                )

    # ------------------------------------------------------------------
    # traffic plane
    # ------------------------------------------------------------------
    def _start_load(self) -> None:
        """Stand up the :class:`~repro.load.LoadSession` in place of the
        fixed-spacing replay: offers route through dispatch + admission
        into ``offer_local``, completions come back via
        :meth:`_on_detection`, and the admission gate probes each
        target's transport for a congested uplink."""
        self.load_session = LoadSession(
            self.clock,
            self.spec.load,
            self.script.streams,
            lambda pid, interval: self.runtimes[pid].offer_local(interval),
            registry=self.clock.telemetry.registry,
            alive=self.is_alive,
            congestion_probe=self._uplink_congested,
        )
        # Epoch plumbing: every runtime resolves admitted keys to epoch
        # ids for its report sidecars, and every node core's queue
        # lifecycle (enqueue / prune) feeds the ledger's queued→matched
        # transitions — concrete local intervals only, so child
        # aggregates at internal nodes never collide.
        for pid, runtime in self.runtimes.items():
            runtime.epoch_lookup = self.load_session.epoch_of
            runtime.role.add_core_observer(
                self.load_session.epochs.core_observer(self.clock, node=pid)
            )
        if self.spec.slo is not None and self.spec.slo.stranded_epoch_rate is not None:
            self._stranding_watchdog = StrandingWatchdog(
                self.load_session.epochs, self.spec.slo.stranded_epoch_rate
            )
        self.load_session.start()

    def _uplink_congested(self, pid: int) -> bool:
        """Admission's snapshot probe: does *pid* currently hold any
        peer link above its high watermark?"""
        runtime = self.runtimes.get(pid)
        return runtime is not None and bool(runtime.transport.congested_peers())

    def load_summary(self) -> Optional[dict]:
        """The run's traffic accounting (``None`` without a load spec):
        offered/admitted/shed counts plus sojourn percentiles —
        the summary's ``load`` block, next to ``wire``."""
        if self.load_session is None:
            return None
        return self.load_session.summary()

    def _on_detection(self, record: DetectionRecord) -> None:
        self.detections.append(record)
        if self.load_session is not None:
            self.load_session.notify_detection(record)

    async def run(
        self,
        *,
        duration: Optional[float] = None,
        until_detections: Optional[int] = None,
        until_load_drained: bool = False,
        timeout: float = 60.0,
        poll: float = 0.01,
    ) -> None:
        """Let the cluster run: for a fixed wall duration, until a
        detection count is reached, and/or until the load session has
        issued and resolved every offer (each bounded by *timeout*)."""
        start = self.clock.now
        if duration is not None:
            await asyncio.sleep(duration)
        if until_detections is not None:
            while len(self.detections) < until_detections:
                if self.clock.now - start > timeout:
                    raise TimeoutError(
                        f"cluster reached {len(self.detections)} detections "
                        f"(< {until_detections}) within {timeout}s"
                    )
                await asyncio.sleep(poll)
        if until_load_drained:
            if self.load_session is None:
                raise RuntimeError("run(until_load_drained=) needs spec.load")
            while not self.load_session.done:
                if self.clock.now - start > timeout:
                    counts = self.load_session.counts
                    raise TimeoutError(
                        f"load session not drained within {timeout}s "
                        f"(offered={counts['offered']}, "
                        f"outstanding={self.load_session.outstanding})"
                    )
                await asyncio.sleep(poll)

    def kill_node(self, pid: int) -> None:
        """Crash-stop *pid* right now (sockets close a beat later)."""
        runtime = self.runtimes[pid]
        if not runtime.alive:
            return
        runtime.kill()
        self._kill_tasks[pid] = asyncio.get_running_loop().create_task(
            runtime.transport.stop()
        )

    def _disconnect(self, failed: int) -> None:
        """Post-repair: survivors forget the dead peer's address."""
        for pid, runtime in self.runtimes.items():
            if pid != failed and runtime.alive:
                runtime.transport.drop_peer(failed)

    async def stop(self) -> None:
        if self._stopped:
            # An admin-started teardown may still be closing sockets:
            # the caller must not return (and let the loop close) first.
            task = self._stop_task
            if task is not None and task is not asyncio.current_task():
                await task
            return
        self._stopped = True
        # Every role stops before any transport closes: a survivor whose
        # monitor still ran would take each closing listener for a crash
        # and re-plan the tree around the teardown.
        for runtime in self.runtimes.values():
            runtime.kill(reason="node_stopped")
        if self.load_session is not None:
            self.load_session.stop()
        for handle in self._offer_handles:
            handle.cancel()
        if self._slo_handle is not None:
            self._slo_handle.cancel()
            self._slo_handle = None
            # One final look: strandings often resolve exactly at drain
            # (the pending sweep reaping a shed-broken epoch's
            # survivors), and a run shorter than one check interval
            # would otherwise never be checked at all.
            self._check_slo()
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
            self._admin_server = None
        killed = await asyncio.gather(
            *self._kill_tasks.values(), return_exceptions=True
        )
        for pid, runtime in self.runtimes.items():
            if pid not in self._kill_tasks:
                await runtime.transport.stop()
        self.clock.emit("cluster_stopped", detections=len(self.detections))
        for outcome in killed:
            if isinstance(outcome, BaseException):
                raise outcome

    # ------------------------------------------------------------------
    # SLO watchdog
    # ------------------------------------------------------------------
    def _breach(self, slo: str, value: float, threshold, node=None) -> None:
        """Emit one latched ``slo_breach`` per (check, node) pair —
        repeats would only spam the log."""
        key = (slo, node)
        if key in self._slo_latched:
            return
        self._slo_latched.add(key)
        self.clock.emit(
            "slo_breach",
            node=node,
            slo=slo,
            value=round(float(value), 6),
            threshold=threshold,
        )

    def _slo_tick(self) -> None:
        if self._stopped:
            return
        self._check_slo()
        self._slo_handle = self.clock.schedule(SLO_CHECK_INTERVAL, self._slo_tick)

    def _check_slo(self) -> None:
        slo = self.spec.slo
        if slo.detection_latency_p99 is not None:
            for pid, scope in self.scopes.items():
                histogram = scope.telemetry.registry.get("repro_detection_latency")
                if histogram is None or not histogram.count:
                    continue
                p99 = histogram.percentile(99.0)
                if p99 is not None and p99 > slo.detection_latency_p99:
                    self._breach(
                        "detection_latency_p99",
                        p99,
                        slo.detection_latency_p99,
                        node=pid,
                    )
        if self._stranding_watchdog is not None:
            breach = self._stranding_watchdog.check()
            if breach is not None:
                self._breach(
                    "stranded_epoch_rate", breach["value"], breach["threshold"]
                )

    # ------------------------------------------------------------------
    # introspection / admin
    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "nodes": self.tree.n,
            "alive": [pid for pid in self.tree.nodes if self.is_alive(pid)],
            "levels": {str(pid): self.tree.level(pid) for pid in self.tree.nodes},
            "detections": len(self.detections),
            "repairs": sorted(self.coordinator.plans),
            "false_suspicions": len(self.log.of_kind("false_suspicion")),
            "uptime": round(self.clock.now, 3),
        }

    def _telemetry_payload(self) -> dict:
        return {
            "nodes": {
                str(pid): scope.telemetry.registry.to_dict()
                for pid, scope in sorted(self.scopes.items())
            },
            "cluster": self.clock.telemetry.registry.to_dict(),
        }

    def _spans_payload(self) -> dict:
        return {
            "nodes": {
                str(pid): scope.telemetry.spans.to_dicts()
                for pid, scope in sorted(self.scopes.items())
            }
        }

    def _eventlog_payload(self) -> dict:
        return {
            "nodes": {
                str(pid): [event_dict(r) for r in scope.log.records]
                for pid, scope in sorted(self.scopes.items())
            },
            "cluster": [event_dict(r) for r in self.clock.log.records],
        }

    def _epochs_payload(self) -> Optional[dict]:
        """The epoch ledger's wire form (``None`` without a load
        session) — summary, stranding detail and watchdog state."""
        if self.load_session is None:
            return None
        payload = self.load_session.epochs.to_dict()
        if self._stranding_watchdog is not None:
            payload["watchdog"] = {
                "threshold": self._stranding_watchdog.threshold,
                "latched": self._stranding_watchdog.latched,
            }
        return payload

    def scrape_payload(self) -> dict:
        """Everything the observability plane needs, in the JSON wire
        forms the admin endpoint serves — :func:`repro.obs.cluster.scrape_local`
        and :class:`~repro.obs.cluster.ClusterScraper` parse the same
        shapes, so the in-process and over-the-wire paths cannot drift."""
        return {
            "status": self.status(),
            "telemetry": self._telemetry_payload(),
            "spans": self._spans_payload(),
            "eventlog": self._eventlog_payload(),
            "epochs": self._epochs_payload(),
        }

    async def _handle_admin(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = None
                try:
                    request = json.loads(line)
                    response = self._admin_dispatch(request)
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    count_error(self.clock.telemetry.registry, "net.admin")
                    response = {"ok": False, "error": repr(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if isinstance(request, dict) and request.get("cmd") == "stop":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _admin_dispatch(self, request: dict) -> dict:
        cmd = request.get("cmd")
        if cmd == "status":
            return {"ok": True, **self.status()}
        if cmd == "telemetry":
            return {"ok": True, **self._telemetry_payload()}
        if cmd == "spans":
            return {"ok": True, **self._spans_payload()}
        if cmd == "eventlog":
            return {"ok": True, **self._eventlog_payload()}
        if cmd == "epochs":
            return {"ok": True, "epochs": self._epochs_payload()}
        if cmd == "kill-node":
            pid = int(request["node"])
            if pid not in self.runtimes:
                return {"ok": False, "error": f"no node {pid}"}
            self.kill_node(pid)
            return {"ok": True, "killed": pid}
        if cmd == "stop":
            if self._stop_task is None:
                self._stop_task = asyncio.get_running_loop().create_task(
                    self.stop()
                )
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown cmd {cmd!r}"}
