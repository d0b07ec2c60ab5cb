"""Span-based tracing with explicit span IDs, nesting and categories.

A *span* is an interval of simulated time with a category (``"net"``,
``"hadoop.map"``, ...), a name, and a *track* — the horizontal lane it
renders on (one per task attempt, per flow, per node — whatever the
instrumented model picks).  Spans nest two ways:

* implicitly: a ``begin`` on a track with an open span becomes that
  span's child (a per-track stack, like call frames);
* explicitly: pass ``parent=<sid>`` and the child inherits the parent's
  track.

``begin`` returns an integer span ID; ``end(sid)`` closes it.  IDs make
re-entrant names safe (two retries of ``map3`` are two distinct spans)
and survive out-of-order closing, which pairing ``:start``/``:end``
labels by string matching cannot do.

The tracer never schedules simulator events and never consumes
randomness: tracing on or off, the simulated event sequence is
identical.  ``NULL_TRACER`` is the disabled twin — ``begin`` returns 0,
``end(0)`` is a no-op — so instrumented code needs no branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


class TraceError(RuntimeError):
    """Misused tracer API (double end, unknown span id, ...)."""


@dataclass
class Span:
    """One interval of simulated time; ``t1 is None`` while still open."""

    sid: int
    parent: int  # 0 = root
    category: str
    name: str
    track: str
    t0: float
    t1: Optional[float] = None
    args: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.t1 is None

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise TraceError(f"span {self.sid} ({self.name!r}) is still open")
        return self.t1 - self.t0


@dataclass(frozen=True)
class Instant:
    """A point event (fault injected, message sent, ...)."""

    time: float
    category: str
    name: str
    track: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    """An explicit happens-before edge between two spans.

    Parent/child nesting covers most structure for free, but some
    dependencies cross tracks: a shuffle fetch depends on the map
    attempt whose output it pulls, a copy phase gathers from many
    fetches, an MPI-D recv waits on flows issued by remote mappers.
    ``kind`` names the dependency ("shuffle", "flow", "barrier", ...)
    so the DAG builder and critical-path walker can attribute wait
    time to it.
    """

    src: int  #: the span that must finish first
    dst: int  #: the span that (partly) waits on it
    kind: str
    time: float  #: simulated time the edge was recorded
    args: dict = field(default_factory=dict)


class SpanTracer:
    """Collects spans and instants against a simulated-time clock.

    ``sink`` (default None) is an optional streaming listener — an
    object with ``on_begin(span)``, ``on_end(sid, t1, args)``,
    ``on_instant(instant)`` and ``on_edge(edge)`` — notified in exactly
    the order events are recorded.  The streaming trace store
    (:mod:`repro.obs.store`) uses it to append events to disk as they
    happen instead of holding the whole trace in memory twice.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.enabled = True
        #: Spans in begin order; ``sid`` is the 1-based index into this list.
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.edges: list[Edge] = []
        self.sink = None
        self._open_by_track: dict[str, list[int]] = {}

    # -- recording ------------------------------------------------------------
    def begin(
        self,
        category: str,
        name: str,
        *,
        track: Optional[str] = None,
        parent: int = 0,
        **args: Any,
    ) -> int:
        """Open a span; returns its ID (0 when tracing is disabled).

        ``parent=<sid>`` nests explicitly (and inherits the parent's
        track); otherwise the span nests under the innermost open span
        of its track.  ``track=None`` without a parent mints a fresh
        unique track — the right default for top-level units of work
        that may overlap (task attempts, flows).
        """
        if not self.enabled:
            return 0
        sid = len(self.spans) + 1
        if parent:
            if not 1 <= parent <= len(self.spans):
                raise TraceError(f"unknown parent span id {parent}")
            if track is None:
                track = self.spans[parent - 1].track
        if track is None:
            track = f"{name}#{sid}"
        stack = self._open_by_track.setdefault(track, [])
        if not parent and stack:
            parent = stack[-1]
        span = Span(sid, parent, category, name, track, self._clock(), None, args)
        self.spans.append(span)
        stack.append(sid)
        if self.sink is not None:
            self.sink.on_begin(span)
        return sid

    def end(self, sid: int, **args: Any) -> None:
        """Close span ``sid`` at the current time.  ``end(0)`` is a no-op."""
        if sid == 0:
            return
        if not 1 <= sid <= len(self.spans):
            raise TraceError(f"unknown span id {sid}")
        span = self.spans[sid - 1]
        if span.t1 is not None:
            raise TraceError(f"span {sid} ({span.name!r}) already ended")
        span.t1 = self._clock()
        if args:
            span.args.update(args)
        stack = self._open_by_track.get(span.track)
        if stack and sid in stack:
            stack.remove(sid)
        if self.sink is not None:
            self.sink.on_end(sid, span.t1, args)

    def abort(self, sid: int, **args: Any) -> None:
        """Close ``sid`` and every open descendant on its track (LIFO).

        The interrupt-safe close: a crashed task ends all the phase
        spans it had open at the moment the kernel threw into it.
        """
        if sid == 0:
            return
        if not 1 <= sid <= len(self.spans):
            raise TraceError(f"unknown span id {sid}")
        span = self.spans[sid - 1]
        stack = self._open_by_track.get(span.track, [])
        if sid not in stack:
            return  # already closed
        while stack:
            top = stack[-1]
            self.end(top, **args)
            if top == sid:
                break

    def instant(
        self, category: str, name: str, *, track: str = "events", **args: Any
    ) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        inst = Instant(self._clock(), category, name, track, args)
        self.instants.append(inst)
        if self.sink is not None:
            self.sink.on_instant(inst)

    def edge(self, src: int, dst: int, kind: str = "dep", **args: Any) -> None:
        """Record that span ``dst`` causally waits on span ``src``.

        Either sid being 0 (a span begun while tracing was off, or a
        dependency the caller could not resolve) makes this a no-op, so
        instrumented code never branches on whether tracing is on.
        """
        if not self.enabled or src == 0 or dst == 0:
            return
        n = len(self.spans)
        if not 1 <= src <= n:
            raise TraceError(f"unknown edge source span id {src}")
        if not 1 <= dst <= n:
            raise TraceError(f"unknown edge destination span id {dst}")
        if src == dst:
            raise TraceError(f"edge from span {src} to itself")
        edge = Edge(src, dst, kind, self._clock(), args)
        self.edges.append(edge)
        if self.sink is not None:
            self.sink.on_edge(edge)

    # -- queries ----------------------------------------------------------------
    def track_of(self, sid: int) -> Optional[str]:
        """The track a span lives on (None for the disabled sid 0)."""
        if sid == 0:
            return None
        return self.spans[sid - 1].track

    def by_category(self, category: str) -> Iterator[Span]:
        return (s for s in self.spans if s.category == category)

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.t1 is None]

    def categories(self) -> set[str]:
        cats = {s.category for s in self.spans}
        cats.update(i.category for i in self.instants)
        return cats

    def last_time(self) -> float:
        """Latest timestamp seen (for closing unfinished spans on export)."""
        t = 0.0
        for s in self.spans:
            t = max(t, s.t0 if s.t1 is None else s.t1)
        for i in self.instants:
            t = max(t, i.time)
        return t

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False
    spans: tuple = ()
    instants: tuple = ()
    edges: tuple = ()
    sink = None

    def begin(self, category, name, *, track=None, parent=0, **args) -> int:
        return 0

    def end(self, sid, **args) -> None:
        pass

    def abort(self, sid, **args) -> None:
        pass

    def instant(self, category, name, *, track="events", **args) -> None:
        pass

    def edge(self, src, dst, kind="dep", **args) -> None:
        pass

    def track_of(self, sid):
        return None

    def by_category(self, category):
        return iter(())

    def open_spans(self):
        return []

    def categories(self):
        return set()

    def last_time(self) -> float:
        return 0.0

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
