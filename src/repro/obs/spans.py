"""Causal span tracing for detection artifacts — lazy, sampled, bounded.

Every artifact of the detection pipeline gets a *span* — a named,
timed record with an optional parent:

* ``interval`` — a local-predicate interval at a process, from the
  event that opened it (``min(x)``) to the event that closed it;
* ``report`` — an aggregated interval (``⊓`` of a subtree solution)
  reported one hop up the spanning tree;
* ``alarm`` — a ``Definitely(Φ)`` announcement at a (partition-)root;
* ``hop`` — a report frame crossing a process boundary (cluster runs).

Parent links run *downwards from the announcement*: an alarm span adopts
the spans of the solution heads that formed it, each ``report`` span
adopts the spans of the intervals it aggregated, and so on recursively
to the concrete intervals — so an alarm can be explained end to end
("which interval at which leaf, opened when, travelled through which
levels").  Spans also carry *marks*: timestamped lifecycle points such
as ``enqueued`` and ``pruned`` recorded by the detection cores.

Hot-path design
---------------
The recording path runs once per predicate interval — inside the same
loop whose latency the telemetry exists to measure — so it must do
near-zero work:

* :meth:`SpanTracker.record_interval` and
  :meth:`SpanTracker.mark_interval` only append one small tuple to a
  pending queue; row construction, key registration, mark attachment
  and per-node event counting all happen in :meth:`SpanTracker.flush`,
  which runs off the latency path — on any read of the table (scrape,
  export, tree query), when an eager span is opened, or when the queue
  reaches its bound;
* flush folding also drives the *counter subscribers*
  (:meth:`SpanTracker.on_flush`): per-offer counters (enqueued, pruned,
  intervals completed) are derived from the queued lifecycle entries in
  one batched pass instead of two dict updates per core event, so the
  observer callback does no metric work at all;
* a row is registered under its artifact's identity
  (:func:`interval_key`: owner and sequence number, never the bounds),
  so naming a span copies no timestamp and costs the same at any
  system size;
* marks fold as raw ``(time, event, node)`` tuples and are only
  formatted to ``"event@Pnode"`` labels when someone reads them;
* :class:`Span` is a lazy **view** over a row, materialized on demand
  (export, scrape, flight snapshot, tree queries) and cached per row so
  object identity is stable;
* an optional :class:`~repro.obs.sampling.TraceSampler` filters the
  materialized table: head-dropped ``interval`` rows vanish from
  ``spans`` / ``to_dicts`` unless *promoted* — adopted into a retained
  explanation (alarms, reports and hops are always retained), so alarm
  traces stay complete at any rate;
* an optional ``capacity`` turns the row table into a bounded ring:
  the oldest rows are evicted in chunks, and their key registrations
  dropped, so long-running cluster nodes hold O(capacity) memory.

Span ids are sequential, so a deterministic simulation produces a
byte-identical span table on every run.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .sampling import TraceSampler

__all__ = ["Span", "SpanTracker", "interval_key"]


def interval_key(interval) -> tuple:
    """Span-registry key for a (possibly aggregated) interval: its
    identity ``(owner, seq)``, ``"agg"``-prefixed for an aggregate.

    The prefix is the artifact kind: a leaf's first aggregate and the
    concrete interval it wraps are both ``(owner, 0)``.  The key never
    touches the bounds, so registering a span costs the same at any
    system size and keeps no timestamp alive.

    Concrete sequence numbers never repeat (a revived process keeps its
    numbering); a reborn detector restarts its aggregate numbering at 0,
    and the registry is latest-wins, so lookups resolve to the live
    incarnation's span."""
    if interval.parts:
        return ("agg", interval.owner, interval.seq)
    return (interval.owner, interval.seq)


# Row slots.  A row is one fixed-shape list — cheap to allocate, cheap
# to mutate in place (parent adoption, lazy mark/attr creation).
_SID, _NAME, _NODE, _START, _END, _PARENT, _ATTRS, _MARKS, _KEY, _FLAG, _VIEW = range(11)

#: Span names subject to head sampling; everything else is always
#: retained (tail bias: derived artifacts are rare and load-bearing).
_SAMPLED_NAMES = frozenset({"interval"})

#: Pending-queue bound: the hot path batches this many record/mark
#: entries before folding them into rows itself.  Any read folds the
#: queue first, so in a scraped deployment this only caps memory
#: between scrapes (~100 bytes per entry).
_QUEUE_LIMIT = 65536


def _format_marks(raw) -> List[Tuple[float, str]]:
    """Materialize raw mark tuples: 3-tuples ``(t, event, node)`` were
    recorded lazily and format here; 2-tuples carried a literal label."""
    if not raw:
        return []
    out = []
    for mark in raw:
        if len(mark) == 2:
            out.append((mark[0], mark[1]))
        else:
            out.append((mark[0], f"{mark[1]}@P{mark[2]}"))
    return out


class Span:
    """One timed, attributed node of a causal trace tree.

    A lazy view over a tracker row: attribute access reads the row, so
    a ``Span`` obtained before more marks arrived still sees them.  At
    most one view exists per row (cached in the row), so identity
    comparisons (``get(key) is span``) keep working.
    """

    __slots__ = ("_row", "_tracker")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        *,
        node: Optional[int] = None,
        parent: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        row = [sid, name, node, start, None, parent, dict(attrs) if attrs else {}, None, None, None, None]
        row[_VIEW] = self
        self._row = row
        self._tracker = None

    @classmethod
    def _of_row(cls, row: list, tracker: Optional["SpanTracker"]) -> "Span":
        span = cls.__new__(cls)
        span._row = row
        span._tracker = tracker
        return span

    # ------------------------------------------------------------------
    @property
    def sid(self) -> int:
        return self._row[_SID]

    @property
    def name(self) -> str:
        return self._row[_NAME]

    @property
    def node(self) -> Optional[int]:
        return self._row[_NODE]

    @property
    def start(self) -> float:
        return self._row[_START]

    @property
    def end(self) -> Optional[float]:
        return self._row[_END]

    @end.setter
    def end(self, value: Optional[float]) -> None:
        self._row[_END] = value

    @property
    def parent(self) -> Optional[int]:
        return self._row[_PARENT]

    @parent.setter
    def parent(self, value: Optional[int]) -> None:
        self._row[_PARENT] = value
        if self._tracker is not None:
            self._tracker._links += 1

    @property
    def attrs(self) -> dict:
        row = self._row
        attrs = row[_ATTRS]
        if attrs is None:
            attrs = {}
            key = row[_KEY]
            if row[_NAME] == "interval" and type(key) is tuple and len(key) == 2:
                # Fast-path interval rows skip the attrs dict at record
                # time; the identity key *is* (owner, seq).
                attrs = {"owner": key[0], "seq": key[1]}
            row[_ATTRS] = attrs
        return attrs

    @property
    def marks(self) -> List[Tuple[float, str]]:
        return _format_marks(self._row[_MARKS])

    @marks.setter
    def marks(self, value) -> None:
        self._row[_MARKS] = [tuple(mark) for mark in value]

    @property
    def duration(self) -> float:
        row = self._row
        end = row[_END]
        return (end if end is not None else row[_START]) - row[_START]

    def mark(self, time: float, label: str) -> None:
        """Record a lifecycle point (``enqueued``, ``pruned``, …)."""
        row = self._row
        marks = row[_MARKS]
        if marks is None:
            marks = row[_MARKS] = []
        marks.append((time, label))

    def to_dict(self) -> dict:
        """JSON-safe form (attrs must already be JSON-safe; the detection
        stack only stores scalars and small lists there)."""
        row = self._row
        return {
            "sid": row[_SID],
            "name": row[_NAME],
            "node": row[_NODE],
            "start": row[_START],
            "end": row[_END],
            "parent": row[_PARENT],
            "attrs": dict(self.attrs),
            "marks": [[t, label] for t, label in self.marks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            int(data["sid"]),
            data["name"],
            data["start"],
            node=data.get("node"),
            parent=data.get("parent"),
            attrs=dict(data.get("attrs") or {}),
        )
        span._row[_END] = data.get("end")
        span._row[_MARKS] = [(t, label) for t, label in data.get("marks", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = f"P{self.node}" if self.node is not None else "-"
        return (
            f"Span#{self.sid}({self.name} @{who} "
            f"[{self.start:.2f}, {self.end if self.end is not None else '…'}])"
        )


class SpanTracker:
    """All spans of one run, with key-based lookup and tree queries.

    Parameters
    ----------
    sampler:
        Optional :class:`~repro.obs.sampling.TraceSampler`.  When set,
        the materialized table (``spans``, ``to_dicts``, tree queries)
        drops head-unsampled ``interval`` rows that were never promoted
        into a retained explanation.  Recording cost is unaffected —
        the decision is evaluated lazily at materialization time.
    capacity:
        Optional ring bound on retained rows.  Eviction runs in chunks
        (amortized O(1) per record), so the table may transiently hold
        slightly more than *capacity* rows; evicted rows lose their
        key registration.
    """

    def __init__(
        self,
        *,
        sampler: Optional[TraceSampler] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("span tracker capacity must be >= 1")
        self.sampler = sampler
        self.capacity = capacity
        self._rows: List[list] = []
        self._by_key: Dict[tuple, list] = {}
        self._next_sid = 0
        self._links = 0
        self._evicted = 0
        self._cache: Optional[tuple] = None
        # Pending record/mark entries (see record_interval / flush).
        self._queue: List[tuple] = []
        # node -> [fn(counts)] counter subscribers notified per flush.
        self._subscribers: Dict[int, List[Callable[[dict], None]]] = {}
        # Eviction chunk: let the table overshoot a little so eviction
        # amortizes instead of shifting the list on every append.
        self._bound = None if capacity is None else capacity + max(32, capacity // 8)

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """The retained span table as (cached) :class:`Span` views."""
        if self._queue:
            self.flush()
        stamp = (self._next_sid, self._links, self._evicted)
        cache = self._cache
        if cache is not None and cache[0] == stamp:
            return cache[1]
        out = [self._view(row) for row in self._retained_rows()]
        self._cache = (stamp, out)
        return out

    def _view(self, row: list) -> Span:
        view = row[_VIEW]
        if view is None:
            view = Span._of_row(row, self)
            row[_VIEW] = view
        return view

    def _retained_rows(self) -> List[list]:
        rows = self._rows
        sampler = self.sampler
        if sampler is None:
            return rows
        # Tail promotion: anything linked into an explanation tree is
        # retained regardless of its head decision — that keeps alarm
        # traces complete down to the concrete leaf intervals.
        has_children = {row[_PARENT] for row in rows if row[_PARENT] is not None}
        keep = sampler.keep
        out = []
        for row in rows:
            flag = row[_FLAG]
            if (
                row[_PARENT] is not None
                or row[_SID] in has_children
                or flag is True
                or (
                    flag is None
                    and (row[_NAME] not in _SAMPLED_NAMES or keep(row[_KEY]))
                )
            ):
                out.append(row)
        return out

    def stats(self) -> dict:
        """Recording vs materialization accounting (bench/scrape aid)."""
        materialized = len(self.spans)  # flushes the queue first
        return {
            "recorded": self._next_sid,
            "retained_rows": len(self._rows),
            "evicted": self._evicted,
            "materialized": materialized,
            "sampled_fraction": (
                materialized / self._next_sid if self._next_sid else 1.0
            ),
        }

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        start: float,
        *,
        node: Optional[int] = None,
        key: Optional[tuple] = None,
        sampled: Optional[bool] = None,
        **attrs,
    ) -> Span:
        """Open a new span; ``key`` (e.g. ``interval_key`` output)
        registers it for later :meth:`get` / :meth:`adopt` lookups.
        ``sampled`` forces the retention decision (``True``: always
        keep, ``False``: drop unless promoted — e.g. a hop honoring its
        sender's head decision)."""
        if self._queue:
            # Queued interval rows precede this span chronologically;
            # folding first keeps sids in true recording order (and
            # makes the intervals adoptable right away).
            self.flush()
        sid = self._next_sid
        self._next_sid = sid + 1
        row = [sid, name, node, start, None, None, attrs or None, None, key, sampled, None]
        self._rows.append(row)
        if key is not None:
            self._by_key[key] = row
        bound = self._bound
        if bound is not None and len(self._rows) > bound:
            self._compact()
        return self._view(row)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        node: Optional[int] = None,
        key: Optional[tuple] = None,
        sampled: Optional[bool] = None,
        **attrs,
    ) -> Span:
        """Create an already-finished span (the common case: the artifact
        completed at creation time)."""
        span = self.begin(name, start, node=node, key=key, sampled=sampled, **attrs)
        span._row[_END] = end
        return span

    def record_interval(self, interval, start: float, end: float, node: int) -> None:
        """Hot path: one finished ``interval`` span for a *concrete*
        predicate interval.  Only enqueues ``(interval, start, end,
        node)``; the row is built when the queue folds (:meth:`flush`)."""
        queue = self._queue
        queue.append((interval, start, end, node))
        if len(queue) >= _QUEUE_LIMIT:
            self.flush()

    def mark_interval(self, interval, time: float, event: str, node: int) -> None:
        """Hot path: enqueue a raw lifecycle mark for *interval*'s span
        (attached at fold time, formatted to ``"event@Pnode"`` only when
        read).  No-op at fold time when the interval was never traced or
        its row was evicted.

        Queue entries share one shape with :meth:`record_interval`;
        slot 2 disambiguates — a mark carries its ``str`` event where a
        record carries its ``float`` end time."""
        queue = self._queue
        queue.append((interval, time, event, node))
        if len(queue) >= _QUEUE_LIMIT:
            self.flush()

    # ------------------------------------------------------------------
    # queue folding
    # ------------------------------------------------------------------
    def on_flush(self, node: int, fn: Callable[[dict], None]) -> None:
        """Subscribe *fn* to per-flush event counts for *node*.

        After each fold, *fn* receives ``{event_or_None: count}`` for
        the batch just folded: mark entries count under their event
        string, record entries under ``None``.  This is how the per-node
        counters (intervals completed, enqueued, pruned) are derived
        without any metric work on the recording path."""
        self._subscribers.setdefault(node, []).append(fn)

    def flush(self) -> None:
        """Fold the pending queue into rows, marks and subscriber
        counts.  Runs on any table read; idempotent and re-entrancy
        safe (the queue is detached before folding)."""
        queue = self._queue
        if not queue:
            return
        self._queue = []
        by_key = self._by_key
        rows = self._rows
        sid = self._next_sid
        subscribers = self._subscribers
        counts: Optional[Dict[int, Dict[Optional[str], int]]] = (
            {} if subscribers else None
        )
        for interval, t0, tail, node in queue:
            if type(tail) is str:
                row = by_key.get(interval_key(interval))
                if row is not None:
                    marks = row[_MARKS]
                    if marks is None:
                        marks = row[_MARKS] = []
                    marks.append((t0, tail, node))
                event = tail
            else:
                key = interval_key(interval)
                row = [sid, "interval", node, t0, tail, None, None, None, key, None, None]
                sid += 1
                rows.append(row)
                by_key[key] = row
                event = None
            if counts is not None:
                per_node = counts.get(node)
                if per_node is None:
                    per_node = counts[node] = {}
                per_node[event] = per_node.get(event, 0) + 1
        self._next_sid = sid
        bound = self._bound
        if bound is not None and len(rows) > bound:
            self._compact()
        if counts:
            for node, per_node in counts.items():
                for fn in subscribers.get(node, ()):
                    fn(per_node)

    def _compact(self) -> None:
        excess = len(self._rows) - self.capacity
        if excess <= 0:
            return
        old = self._rows[:excess]
        del self._rows[:excess]
        self._evicted += excess
        by_key = self._by_key
        for row in old:
            key = row[_KEY]
            if key is not None and by_key.get(key) is row:
                del by_key[key]

    # ------------------------------------------------------------------
    # lookup & parentage
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Optional[Span]:
        if self._queue:
            self.flush()
        row = self._by_key.get(key)
        return None if row is None else self._view(row)

    def head_decision(self, key: tuple) -> bool:
        """The sampler's head decision for *key* (``True`` without a
        sampler) — what a sender advertises in the frame sidecar."""
        sampler = self.sampler
        if sampler is None:
            return True
        return sampler.keep(key)

    def adopt(self, parent: Span, child_key: tuple) -> bool:
        """Parent the span registered under *child_key* beneath *parent*
        (first parent wins — an artifact is explained by the first
        announcement that consumed it).  Returns True when a link was
        created."""
        if self._queue:
            self.flush()
        child = self._by_key.get(child_key)
        if child is None or child[_PARENT] is not None or child is parent._row:
            return False
        child[_PARENT] = parent._row[_SID]
        self._links += 1
        return True

    def reparent(self, child: Span, parent_sid: int) -> bool:
        """Late re-parenting by sid (cluster trace stitching); first
        parent wins, self-links refused."""
        row = child._row
        if row[_PARENT] is not None or row[_SID] == parent_sid:
            return False
        row[_PARENT] = parent_sid
        self._links += 1
        return True

    def children_of(self, span: Span) -> List[Span]:
        sid = span.sid
        return [s for s in self.spans if s.parent == sid]

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def alarms(self) -> List[Span]:
        """Root announcement spans, in detection order."""
        return self.named("alarm")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def walk(self, span: Span, depth: int = 0) -> Iterator[Tuple[int, Span]]:
        """Depth-first traversal of *span*'s subtree as (depth, span)."""
        yield depth, span
        for child in self.children_of(span):
            yield from self.walk(child, depth + 1)

    def render_tree(self, span: Span) -> str:
        """Indented text rendering of one span tree (an alarm's
        end-to-end explanation)."""
        lines = []
        for depth, s in self.walk(span):
            who = f"P{s.node}" if s.node is not None else "-"
            extra = ""
            if s.name == "alarm" and "latency" in s.attrs:
                extra = f" latency={s.attrs['latency']:.2f}"
            marks = s.marks
            if marks:
                points = ", ".join(f"{label}@{t:.2f}" for t, label in marks[:4])
                extra += f" [{points}{', …' if len(marks) > 4 else ''}]"
            end = s.end if s.end is not None else s.start
            lines.append(
                f"{'  ' * depth}{s.name} #{s.sid} {who} "
                f"[{s.start:.2f} → {end:.2f}]{extra}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON wire form (cluster scrapes, flight snapshots)
    # ------------------------------------------------------------------
    def to_dicts(self, *, tail: Optional[int] = None) -> List[dict]:
        """The retained span table as JSON-safe dicts (optionally only
        the newest *tail* spans — the flight recorder's bounded ring).
        Sampling applies here: head-dropped, unpromoted intervals never
        reach a scrape payload or snapshot file."""
        spans = self.spans if tail is None else self.spans[-tail:]
        return [span.to_dict() for span in spans]

    @classmethod
    def from_dicts(cls, rows: List[dict]) -> "SpanTracker":
        """Rebuild a *read-only* tracker from :meth:`to_dicts` output.

        Sids are preserved verbatim (a snapshot tail need not start at
        0), so do not :meth:`begin` new spans on the result — key-based
        lookups are not restored either, only the tree structure."""
        tracker = cls()
        top = 0
        for data in rows:
            sid = int(data["sid"])
            top = max(top, sid + 1)
            tracker._rows.append(
                [
                    sid,
                    data["name"],
                    data.get("node"),
                    data["start"],
                    data.get("end"),
                    data.get("parent"),
                    dict(data.get("attrs") or {}),
                    [(t, label) for t, label in data.get("marks", [])],
                    None,
                    True,
                    None,
                ]
            )
        tracker._next_sid = top
        return tracker

    def append_imported(self, data: dict, *, sid: int) -> Span:
        """Append one wire-form row under a caller-chosen sid (cluster
        aggregation renumbers node-local tables into one namespace)."""
        if self._queue:
            self.flush()
        self._next_sid = max(self._next_sid, sid + 1)
        row = [
            sid,
            data["name"],
            data.get("node"),
            data["start"],
            data.get("end"),
            None,
            dict(data.get("attrs") or {}),
            [(t, label) for t, label in data.get("marks", [])],
            None,
            True,
            None,
        ]
        self._rows.append(row)
        self._links += 1  # invalidate any cached materialization
        return self._view(row)

    def by_sid(self, sid: int) -> Optional[Span]:
        """Span with the given id, tolerating non-contiguous tables
        (deserialized snapshots, stitched cluster traces)."""
        spans = self.spans
        if 0 <= sid < len(spans) and spans[sid].sid == sid:
            return spans[sid]
        for span in spans:
            if span.sid == sid:
                return span
        return None

    def detection_latencies(self) -> List[float]:
        """Per-alarm detection latency (simulated time from the last
        solution interval's open to the announcement), for alarms that
        recorded one."""
        return [
            s.attrs["latency"] for s in self.alarms() if "latency" in s.attrs
        ]
