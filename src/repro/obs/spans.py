"""Causal span tracing for detection artifacts — columnar.

Every artifact of the detection pipeline gets a *span* — a named,
timed record with an optional parent:

* ``interval`` — a local-predicate interval at a process, from the
  event that opened it (``min(x)``) to the event that closed it;
* ``report`` — an aggregated interval (``⊓`` of a subtree solution of
  two or more heads) reported one hop up the spanning tree; a leaf
  forwards its interval under the ``interval`` span itself;
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
near-zero work and leave nothing for the garbage collector to walk:

* the table is flat columns — sid, name code, node, start, end, parent
  (``array``) and the registry keys — with ``attrs`` dicts only on rows
  that have any, and marks in one log of ``(row, time, event, node)``
  columns, formatted to ``"event@Pnode"`` labels only when read.  A
  span owns no Python object, so the tracker's GC-tracked object count
  is O(1);
* every call writes into the columns when it is made; rows append in
  call order, so sids are chronological and an interval is adoptable
  the moment it is recorded — there is no queue and nothing to fold;
* the tracker keeps no counters: the callers that record an interval
  or log a mark bump their own bound metric handles at the same event;
* a row is registered under its artifact's identity
  (:func:`interval_key`: owner and sequence number, never the bounds),
  so naming a span copies no timestamp at any system size;
* :class:`Span` is a **view** over a row, built on demand; a
  weak-valued cache keeps ``get(key) is span`` while the view is held.

Span ids are sequential, so a deterministic simulation produces a
byte-identical span table on every run.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from weakref import KeyedRef

__all__ = ["Span", "SpanTracker", "interval_key"]


def interval_key(interval) -> tuple:
    """Span-registry key for a (possibly aggregated) interval: its
    identity ``(owner, seq)``, ``"agg"``-prefixed for an aggregate.

    The prefix is the artifact kind: an internal node's first aggregate
    and its own first interval are both ``(owner, 0)``.  The key never
    touches the bounds, so registering a span costs the same at any
    system size and keeps no timestamp alive.

    Concrete sequence numbers never repeat (a revived process keeps its
    numbering); a reborn detector restarts its aggregate numbering at 0,
    and the registry is latest-wins, so lookups resolve to the live
    incarnation's span."""
    if interval.parts:
        return ("agg", interval.owner, interval.seq)
    return (interval.owner, interval.seq)


#: Column value for "none": no node, no parent, a literal-label mark
#: (no node to format) or a mark whose span was never traced.
_NIL = -(1 << 63)


class Span:
    """One timed, attributed node of a causal trace tree.

    A view over a tracker row: attribute access reads the columns, so a
    ``Span`` obtained before more marks arrived still sees them.  The
    tracker hands out at most one live view per row, so identity
    comparisons (``get(key) is span``) keep working while it is held.
    """

    __slots__ = ("_tracker", "_row", "__weakref__")

    def __init__(self, tracker: "SpanTracker", row: int) -> None:
        self._tracker = tracker
        self._row = row

    # ------------------------------------------------------------------
    @property
    def sid(self) -> int:
        return self._tracker._sid[self._row]

    @property
    def name(self) -> str:
        tracker = self._tracker
        return tracker._names[tracker._name[self._row]]

    @property
    def node(self) -> Optional[int]:
        node = self._tracker._node[self._row]
        return None if node == _NIL else node

    @property
    def start(self) -> float:
        return self._tracker._start[self._row]

    @property
    def end(self) -> Optional[float]:
        end = self._tracker._end[self._row]
        return None if end != end else end

    @property
    def parent(self) -> Optional[int]:
        parent = self._tracker._parent[self._row]
        return None if parent == _NIL else parent

    @property
    def attrs(self) -> dict:
        tracker = self._tracker
        attrs = tracker._attrs.get(self._row)
        if attrs is None:
            attrs = tracker._attrs[self._row] = tracker._derived_attrs(self._row)
        return attrs

    @property
    def marks(self) -> List[Tuple[float, str]]:
        return self._tracker._marks_of(self._row)

    @property
    def duration(self) -> float:
        end = self.end
        return (end if end is not None else self.start) - self.start

    def mark(self, time: float, label: str) -> None:
        """Record a lifecycle point (``enqueued``, ``pruned``, …)."""
        self._tracker._log_mark(self._row, time, label, _NIL)

    def to_dict(self) -> dict:
        """JSON-safe form (attrs must already be JSON-safe; the detection
        stack only stores scalars and small lists there)."""
        return self._tracker._to_dict(self._row, self._tracker._mark_index())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = self.end if self.end is not None else "…"
        return f"Span#{self.sid}({self.name} @P{self.node} [{self.start:.2f}, {end}])"


class SpanTracker:
    """All spans of one run, with key-based lookup and tree queries."""

    def __init__(self) -> None:
        # Row columns; a row is its index in every column.
        self._sid, self._node, self._parent = array("q"), array("q"), array("q")
        self._start, self._end, self._name = array("d"), array("d"), array("H")
        self._keys: List[Optional[tuple]] = []
        self._attrs: Dict[int, dict] = {}
        # Name code 0 is "interval", the rows record_interval writes.
        self._names: List[str] = ["interval"]
        self._name_codes: Dict[str, int] = {"interval": 0}
        # Mark log columns: row, time, event/label code, node.
        self._mrow, self._mtime = array("q"), array("d")
        self._mevent, self._mnode = array("i"), array("q")
        self._labels: List[str] = []
        self._label_codes: Dict[str, int] = {}
        self._by_key: Dict[tuple, int] = {}
        # row -> weak reference to its live view (dropped with the view).
        self._views: Dict[int, KeyedRef] = {}
        self._next_sid = self._links = 0
        self._tree = self._mark_cache = None  # _memo slots

    def __len__(self) -> int:
        return len(self._sid)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """The span table as :class:`Span` views."""
        return [self._view(row) for row in range(len(self._sid))]

    def _view(self, row: int) -> Span:
        ref = self._views.get(row)
        view = None if ref is None else ref()
        if view is None:
            view = Span(self, row)
            self._views[row] = KeyedRef(view, self._forget, row)
        return view

    def _forget(self, ref: KeyedRef) -> None:
        if self._views.get(ref.key) is ref:
            del self._views[ref.key]

    def _memo(self, slot: str, stamp, build: Callable[[], object]):
        cache = getattr(self, slot)
        if cache is None or cache[0] != stamp:
            cache = (stamp, build())
            setattr(self, slot, cache)
        return cache[1]

    @staticmethod
    def _group(pairs) -> Dict[int, List[int]]:
        groups: Dict[int, List[int]] = {}
        for key, value in pairs:
            groups.setdefault(key, []).append(value)
        return groups

    def _children(self) -> Dict[int, List[int]]:
        """Parent sid -> rows of its children."""
        parents = self._parent
        pairs = ((p, i) for i, p in enumerate(parents) if p != _NIL)
        stamp = (len(parents), self._links)
        return self._memo("_tree", stamp, lambda: self._group(pairs))

    def _mark_index(self) -> Dict[int, List[int]]:
        """Row -> positions of its marks in the log, in log order."""
        pairs = ((row, k) for k, row in enumerate(self._mrow) if row != _NIL)
        stamp = len(self._mrow)
        return self._memo("_mark_cache", stamp, lambda: self._group(pairs))

    def _marks_of(self, row: int, index: Optional[dict] = None) -> List[Tuple[float, str]]:
        times, events, nodes, labels = self._mtime, self._mevent, self._mnode, self._labels
        return [
            (times[k], labels[events[k]] + ("" if nodes[k] == _NIL else f"@P{nodes[k]}"))
            for k in (self._mark_index() if index is None else index).get(row, ())
        ]

    def _derived_attrs(self, row: int) -> dict:
        # Hot-path interval rows store no attrs: their key *is* (owner, seq).
        key = self._keys[row]
        if self._names[self._name[row]] == "interval" and type(key) is tuple and len(key) == 2:
            return {"owner": key[0], "seq": key[1]}
        return {}

    def _to_dict(self, row: int, marks: dict) -> dict:
        node, end, parent = self._node[row], self._end[row], self._parent[row]
        attrs = self._attrs.get(row)
        return {
            "sid": self._sid[row],
            "name": self._names[self._name[row]],
            "node": None if node == _NIL else node,
            "start": self._start[row],
            "end": None if end != end else end,
            "parent": None if parent == _NIL else parent,
            "attrs": dict(attrs) if attrs is not None else self._derived_attrs(row),
            "marks": [[t, label] for t, label in self._marks_of(row, marks)],
        }

    def stats(self) -> dict:
        """Recording accounting (bench/scrape aid); ``len(tracker)`` is
        the rows held."""
        return {"recorded": self._next_sid}

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def _append(self, code, node, start, end, key, attrs) -> int:
        sid = self._next_sid
        self._next_sid = sid + 1
        row = len(self._sid)
        self._sid.append(sid)
        self._name.append(code)
        self._node.append(_NIL if node is None else node)
        self._start.append(start)
        self._end.append(float("nan") if end is None else end)
        self._parent.append(_NIL)
        self._keys.append(key)
        if attrs:
            self._attrs[row] = attrs
        if key is not None:
            self._by_key[key] = row
        return row

    @staticmethod
    def _intern(codes: Dict[str, int], table: List[str], text: str) -> int:
        code = codes.get(text)
        if code is None:
            code = codes[text] = len(table)
            table.append(text)
        return code

    def begin(self, name: str, start: float, **kwargs) -> Span:
        """Open a span with no end yet; takes :meth:`record`'s keywords."""
        return self.record(name, start, None, **kwargs)

    def record(
        self,
        name: str,
        start: float,
        end: Optional[float],
        *,
        node: Optional[int] = None,
        key: Optional[tuple] = None,
        **attrs,
    ) -> Span:
        """Create a span, finished at *end* (the common case: the
        artifact completed at creation time).  ``key`` (e.g.
        ``interval_key`` output) registers it for later :meth:`get` /
        :meth:`adopt` lookups."""
        code = self._intern(self._name_codes, self._names, name)
        return self._view(self._append(code, node, start, end, key, attrs))

    def record_sid(
        self,
        name: str,
        start: float,
        end: Optional[float],
        *,
        node: Optional[int] = None,
        key: Optional[tuple] = None,
        **attrs,
    ) -> int:
        """:meth:`record` that returns the new span's sid instead of a
        :class:`Span` view (the report path; pair with :meth:`adopt_sid`)."""
        code = self._intern(self._name_codes, self._names, name)
        return self._sid[self._append(code, node, start, end, key, attrs)]

    def record_interval(self, interval, start: float, end: float, node: int) -> None:
        """Hot path: one finished ``interval`` span for a *concrete*
        predicate interval, written straight into the columns (no view,
        no attrs: they derive from the key when read)."""
        self._append(0, node, start, end, interval_key(interval), None)

    def mark_interval(self, interval, time: float, event: str, node: int) -> None:
        """Hot path: log a raw lifecycle mark for *interval*'s span
        (dropped when the interval was never traced)."""
        self._log_mark(self._by_key.get(interval_key(interval), _NIL), time, event, node)

    def _log_mark(self, row: int, time: float, label: str, node: int) -> None:
        code = self._intern(self._label_codes, self._labels, label)
        self._mrow.append(row)
        self._mtime.append(time)
        self._mevent.append(code)
        self._mnode.append(node)

    # ------------------------------------------------------------------
    # lookup & parentage
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Optional[Span]:
        row = self._by_key.get(key)
        return None if row is None else self._view(row)

    def sid_of(self, key: tuple) -> Optional[int]:
        """Sid of the span registered under *key*, read from the column
        (no :class:`Span` view), or ``None``."""
        row = self._by_key.get(key)
        return None if row is None else self._sid[row]

    def lookup(self, key: tuple) -> Optional[Tuple[int, str, dict]]:
        """``(sid, name, attrs)`` of the span registered under *key*,
        read from the columns (no :class:`Span` view), or ``None``."""
        row = self._by_key.get(key)
        if row is None:
            return None
        attrs = self._attrs.get(row)
        return (
            self._sid[row],
            self._names[self._name[row]],
            self._derived_attrs(row) if attrs is None else attrs,
        )

    def adopt(self, parent: Span, child_key: tuple) -> bool:
        """Parent the span registered under *child_key* beneath *parent*
        (first parent wins — an artifact is explained by the first
        announcement that consumed it).  Returns True when a link was
        created."""
        return self.adopt_sid(parent.sid, child_key)

    def adopt_sid(self, parent_sid: int, child_key: tuple) -> bool:
        """:meth:`adopt` under a parent named by its sid."""
        row = self._by_key.get(child_key)
        return row is not None and self._link(row, parent_sid)

    def reparent(self, child: Span, parent_sid: int) -> bool:
        """Late re-parenting by sid (cluster trace stitching); first
        parent wins, self-links refused."""
        return self._link(child._row, parent_sid)

    def _link(self, row: int, parent_sid: int) -> bool:
        if self._parent[row] != _NIL or self._sid[row] == parent_sid:
            return False
        self._parent[row] = parent_sid
        self._links += 1
        return True

    def children_of(self, span: Span) -> List[Span]:
        return [self._view(row) for row in self._children().get(span.sid, ())]

    def named(self, name: str) -> List[Span]:
        names = self._names
        return [self._view(row) for row, code in enumerate(self._name) if names[code] == name]

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
    # JSON wire form (cluster scrapes)
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """The span table as JSON-safe dicts."""
        marks = self._mark_index()
        return [self._to_dict(row, marks) for row in range(len(self._sid))]

    def append_imported(self, data: dict) -> Span:
        """Append one wire-form row under the next sid of this table,
        unlinked (cluster aggregation renumbers node-local tables into
        one namespace and remaps their links with :meth:`reparent`)."""
        code = self._intern(self._name_codes, self._names, data["name"])
        attrs = dict(data.get("attrs") or {})
        row = self._append(code, data.get("node"), data["start"], data.get("end"), None, attrs)
        for t, label in data.get("marks", []):
            self._log_mark(row, t, label, _NIL)
        return self._view(row)

    def by_sid(self, sid: int) -> Optional[Span]:
        """Span with the given id, or ``None``: sids are handed out
        0..n-1 in row order, so a sid is its row."""
        return self._view(sid) if 0 <= sid < len(self._sid) else None

    def detection_latencies(self) -> List[float]:
        """Per-alarm detection latency (simulated time from the last
        solution interval's open to the announcement), for alarms that
        recorded one."""
        return [s.attrs["latency"] for s in self.alarms() if "latency" in s.attrs]
