"""Benchmark-side tracing: spans around the public entry points of each layer.

The traced repetition patches, from here and only for that repetition,
the entry points listed in :func:`install_live` / :func:`install_sim`
and appends one row per call to an in-memory list; nothing under
``src/`` knows about it.  A row is ``[name_index, start_ns, end_ns,
parent_id, epoch_id]`` (``names[name_index]`` is ``(layer, name)``, a
row's id is its position, ``-1`` means "none"); all rows of one offer's
path share its epoch id, so a trace can be cut per epoch.

Self time of a span is its duration minus the part its child spans
cover.  Every wrapped function is synchronous and the process has one
thread, so children nest strictly inside their parent and never overlap
each other: the covered part is the plain sum of child durations.

Run ``python -m benchmarks.e2e.trace FILE`` to print a trace file's
per-layer self-time table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "layer_table", "install_live", "attach_live", "install_sim"]

SPAN_FIELDS = ("name_index", "start_ns", "end_ns", "parent_id", "epoch_id")


def self_times(spans: Sequence[Sequence[int]]) -> List[int]:
    """Per-span self time in ns: duration minus child durations."""
    out = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            out[row[3]] -= row[2] - row[1]
    return out


def layer_table(
    names: Sequence[Tuple[str, str]],
    spans: Sequence[Sequence[int]],
    lo_ns: int,
    hi_ns: int,
) -> Dict[Tuple[str, str], List[int]]:
    """``(layer, name) -> [calls, self_ns]`` over spans that *started*
    inside ``[lo_ns, hi_ns)``."""
    table: Dict[Tuple[str, str], List[int]] = {tuple(n): [0, 0] for n in names}
    for row, own in zip(spans, self_times(spans)):
        if lo_ns <= row[1] < hi_ns:
            cell = table[tuple(names[row[0]])]
            cell[0] += 1
            cell[1] += own
    return table


def root_ns(spans: Sequence[Sequence[int]], lo_ns: int, hi_ns: int) -> int:
    """Total duration of parentless spans started in the window — what
    the per-layer self times must add up to."""
    return sum(r[2] - r[1] for r in spans if r[3] < 0 and lo_ns <= r[1] < hi_ns)


def _first_leaf_key(interval) -> Tuple[int, int]:
    while interval.parts:
        interval = interval.parts[0]
    return (interval.owner, interval.seq)


class Tracer:
    """Span recorder plus the two timing probes that need call arguments
    (generator lag, transport hop wait)."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self.spans: List[List[int]] = []
        self._stack: List[Tuple[int, int]] = []
        self._undo: List[Tuple[object, str, object]] = []
        #: ``key -> epoch`` resolver, set once the run knows its epochs
        self.epoch_of_key: Optional[Callable[[Tuple[int, int]], Optional[int]]] = None
        self.lags: List[Tuple[float, float]] = []  # (issued_at, lag_s)
        self.hop_waits: List[Tuple[int, int]] = []  # (received_ns, wait_ns)
        self._hop_sent: Dict[tuple, int] = {}
        self.socket_writes: List[int] = []  # perf ns of every StreamWriter.write

    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn, epoch_of=None):
        """*fn* with a span around every call.  ``epoch_of(*args)`` may
        name the call's epoch; otherwise the parent span's is inherited."""
        index = len(self.names)
        self.names.append((layer, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent, epoch = stack[-1] if stack else (-1, -1)
            if epoch_of is not None:
                own = epoch_of(*args)
                if own is not None:
                    epoch = own
            row = [index, 0, 0, parent, epoch]
            stack.append((len(spans), epoch))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, layer: str, epoch_of=None, *, name: Optional[str] = None) -> None:
        """Replace ``owner.attr`` (a class's method, an instance's
        callback or a module's function) by its traced form."""
        original = getattr(owner, attr)
        label = name or f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        setattr(owner, attr, self.wrap(layer, label, original, epoch_of))
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` (probes that are
        not plain spans)."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- epoch resolvers -------------------------------------------------
    def _epoch_of_interval(self, interval) -> Optional[int]:
        lookup = self.epoch_of_key
        return None if lookup is None else lookup(_first_leaf_key(interval))

    def _epoch_of_message(self, message) -> Optional[int]:
        interval = getattr(message, "interval", None)
        return None if interval is None else self._epoch_of_interval(interval)

    # ------------------------------------------------------------------
    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {**header, "fields": SPAN_FIELDS, "names": self.names, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _install_detect(tracer: Tracer) -> None:
    """Layers both planes share: detect, intervals, obs span tracker."""
    from repro.detect import hierarchical
    from repro.detect.core import RepeatedDetectionCore
    from repro.detect.roles import HierarchicalRole
    from repro.obs.spans import SpanTracker

    by_interval = lambda self, interval, *rest: tracer._epoch_of_interval(interval)  # noqa: E731
    tracer.patch(HierarchicalRole, "on_local_interval", "detect.roles", by_interval)
    tracer.patch(
        HierarchicalRole,
        "on_control_message",
        "detect.roles",
        lambda self, src, message: tracer._epoch_of_message(message),
    )
    tracer.patch(
        RepeatedDetectionCore,
        "offer",
        "detect.core",
        lambda self, key, interval: tracer._epoch_of_interval(interval),
    )
    # ``aggregate`` is a module-level function: patch it in the one
    # namespace of the measured path that imported it.
    tracer.patch(hierarchical, "aggregate", "intervals", name="aggregate")
    for method in ("record_interval", "mark_interval", "record", "adopt", "get"):
        tracer.patch(SpanTracker, method, "obs")


def install_live(tracer: Tracer) -> None:
    """Class-level patches for a tcp7 repetition; call before the
    cluster is built (roles bind some of these methods at construction)."""
    import asyncio

    from repro.load.latency import LatencyStore
    from repro.load.session import LoadSession
    from repro.net.codec import FrameCodec
    from repro.net.runtime import NodeRuntime
    from repro.net.transport import TcpTransport
    from repro.obs.epochs import EpochLedger
    from repro.sim.messages import IntervalReport

    _install_detect(tracer)
    tracer.patch(LoadSession, "notify_detection", "load")
    tracer.patch(LatencyStore, "expire", "load")
    tracer.patch(FrameCodec, "encode", "net.codec")
    tracer.patch(FrameCodec, "feed_meta", "net.codec")
    tracer.patch(
        NodeRuntime,
        "offer_local",
        "net.runtime",
        lambda self, interval, *rest: tracer._epoch_of_interval(interval),
    )
    tracer.patch(
        NodeRuntime,
        "send_control",
        "net.runtime",
        lambda self, dst, message: tracer._epoch_of_message(message),
    )
    for method in (
        "note_offered", "note_shed", "note_admitted", "note_completed",
        "note_abandoned", "tick", "expiry_cause",
    ):
        tracer.patch(EpochLedger, method, "obs")

    def observed(core_observer):
        # the ledger's queue hook is a closure: wrap it where it is made
        def make(self, clock, node=None):
            return tracer.wrap("obs", "EpochLedger.core_observer", core_observer(self, clock, node))
        return make

    tracer.replace(EpochLedger, "core_observer", observed)

    def probed(send):
        spanned = tracer.wrap("net.transport", "TcpTransport.send", send)
        hop_sent = tracer._hop_sent

        def probing_send(self, dst, message, meta=None):
            if type(message) is IntervalReport:
                interval = message.interval
                hop_sent[
                    (self.node_id, dst, message.transport_seq, interval.owner, interval.seq)
                ] = time.perf_counter_ns()
            return spanned(self, dst, message, meta)

        return probing_send

    tracer.replace(TcpTransport, "send", probed)

    def counted(write):
        writes = tracer.socket_writes

        def counting_write(self, data):
            writes.append(time.perf_counter_ns())
            return write(self, data)

        return counting_write

    tracer.replace(asyncio.StreamWriter, "write", counted)


def attach_live(tracer: Tracer, cluster, base: float) -> None:
    """Instance-level wrappers, once the cluster and its load session
    exist (and before the first offer fires)."""
    from repro.sim.messages import IntervalReport

    session = cluster.load_session
    tracer.epoch_of_key = session.epoch_of

    plan = session.generator.plan()
    lags = tracer.lags
    spanned_intake = tracer.wrap(
        "load", "LoadSession.intake", session.generator.intake, lambda offer: offer.epoch
    )

    def intake(offer):
        lags.append((offer.issued_at, offer.issued_at - (base + plan[offer.index][0])))
        spanned_intake(offer)

    session.generator.intake = intake

    hop_sent, hop_waits = tracer._hop_sent, tracer.hop_waits
    for pid, runtime in cluster.runtimes.items():
        transport = runtime.transport
        spanned = tracer.wrap(
            "net.runtime",
            "NodeRuntime.on_message",
            transport.receiver,
            lambda src, message, meta=None: tracer._epoch_of_message(message),
        )

        def receive(src, message, meta=None, _pid=pid, _inner=spanned):
            if type(message) is IntervalReport:
                interval = message.interval
                sent = hop_sent.pop(
                    (src, _pid, message.transport_seq, interval.owner, interval.seq), None
                )
                if sent is not None:
                    now = time.perf_counter_ns()
                    hop_waits.append((now, now - sent))
            _inner(src, message, meta)

        transport.set_receiver(receive)


def install_sim(tracer: Tracer) -> None:
    """Class-level patches for the sim85_paper repetition."""
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.workload.generator import EpochProcess

    _install_detect(tracer)
    # one interval per process per epoch: a concrete interval's seq *is*
    # its epoch (no crashes in this workload)
    tracer.epoch_of_key = lambda key: key[1]
    tracer.patch(Simulator, "step", "sim.kernel")
    tracer.patch(Network, "send", "sim.network")
    for method in ("begin_epoch", "end_epoch_early", "on_app_message"):
        tracer.patch(EpochProcess, method, "workload")

    def planes(attach):
        # receive-side glue (clock merge, trace record) belongs to the
        # plane the message travelled on, not to the kernel's step
        def attach_traced(self, node_id, handler):
            app = tracer.wrap("workload", "MonitoredProcess.on_app_receive", handler)
            control = tracer.wrap("sim.process", "MonitoredProcess.on_control_receive", handler)

            def deliver(src, message, plane):
                (app if plane == "app" else control)(src, message, plane)

            attach(self, node_id, deliver)

        return attach_traced

    tracer.replace(Network, "attach", planes)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m benchmarks.e2e.trace TRACE.json", file=sys.stderr)
        return 2
    doc = json.loads(Path(args[0]).read_text())
    lo, hi = doc["window_ns"]
    table = layer_table(doc["names"], doc["spans"], lo, hi)
    total = sum(cell[1] for cell in table.values()) or 1
    print(f"{doc['workload']}: {len(doc['spans'])} spans, window {(hi - lo) / 1e9:.2f} s")
    print(f"{'layer':<14} {'entry point':<36} {'calls':>9} {'self ms':>10} {'share':>7}")
    for (layer, name), (calls, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"{layer:<14} {name:<36} {calls:>9} {own / 1e6:>10.2f} {own / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
