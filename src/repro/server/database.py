"""The span store: one id map, one posting map, one forest, time segments.

The server's store is :class:`repro.server.sharding.ShardedSpanStore`,
this class with a retention depth.  The store never writes into a span:
stamping tenant labels (ingest enrichment) and filtering span lists by
them are the server's job.

Every association key of Algorithm 1, as
:func:`repro.server.index.association_keys` defines them, has a posting
— the spans that carry it — in one map from axis to raw identifier, and
the same keys feed an incremental union-find
(:class:`repro.server.index.TraceGraphIndex`), so trace membership is
answered without iterating at all; the paper's iterative search
(:mod:`repro.server.reference`) reads the postings through
:meth:`SpanStore.carriers`.

Span lists (the Fig 15 workload) read **time segments**, the way
DeepFlow's ClickHouse tables are partitioned by time: a span's segment
is ``start_time // window``, and each segment keeps the spans
themselves as one run sorted by :data:`repro.core.span.CANONICAL_ORDER`
(``(start_time, span_id)``).  Segment order is time order, so a range
read concatenates the slices of the segments it overlaps — no merge.  A
segment is also the retention unit: once the newest span's segment is
more than the retention depth past it, the segment is dropped whole
(:meth:`SpanStore._expire`).

Ingest is the hot path — every span the fleet of agents ships lands in
:meth:`SpanStore.insert_many` — so the store is write-optimized the way
an LSM memtable is: an insert only registers the span (id map, for
duplicate detection and ``get``) and appends it to an unindexed *tail*.
All index maintenance — the postings, the union-find, the segments'
time runs — happens in commit passes that each query triggers for
exactly the tail it needs, one fused pass per batch of inserts.  The
key commit files each key under its raw identifier in its axis's map (an
int systrace id hashes in a fraction of the time a tagged tuple does)
and hands union-find merges to :meth:`TraceGraphIndex.link_batch` as
(new span, existing carrier) pairs.  A posting is a bare span id while
one span carries its key and a list of ids, in commit order, once
several do; a new carrier links to the posting's newest one.
:meth:`SpanStore.flush` forces both commits, letting benchmarks price
ingest, index commit, and queries separately.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from operator import attrgetter
from typing import Callable, Iterable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import CANONICAL_ORDER, Span, SpanSide
from repro.server.index import TraceGraphIndex, association_keys

__all__ = ["DEFAULT_WINDOW", "SpanStore"]

#: Default time-segment width, seconds: the agent's default session slot.
DEFAULT_WINDOW = 60.0

_START = attrgetter("start_time")


class SpanStore:
    """In-memory indexed span storage with an incremental trace index.

    Keeps every span it accepts; :class:`repro.server.sharding.
    ShardedSpanStore` is the same store with a retention depth.
    """

    def __init__(self, metrics: Optional[PipelineMetrics] = None) -> None:
        self._spans: dict[int, Span] = {}
        #: axis tag → raw identifier → posting, the keys being the
        #: ``(tag, value)`` pairs of :func:`association_keys`.  Raw
        #: identifiers (int/str/tuple) hash faster than the tagged pair.
        #: A posting is a bare span id while one span carries the key —
        #: most keys (e.g. per-flow TCP sequences) never collide — and a
        #: list of carrier ids in commit order from its first collision
        #: on: a two-id list is a third of a two-id set's bytes.
        self._postings: defaultdict[str, dict] = defaultdict(dict)
        #: segment key (``start_time // window``) → that window's spans,
        #: sorted by ``CANONICAL_ORDER``, in key order.
        self._segments: dict[float, list[Span]] = {}
        #: segment key → side → ``(duration, span)`` of the segment's
        #: slowest span of that side (the first in run order on a tie).
        self._slowest: dict[float, dict[SpanSide, tuple]] = {}
        self.window = DEFAULT_WINDOW
        #: Segments kept behind the newest one; a plain store keeps all.
        self._retention = math.inf
        #: Newest and oldest segment keys accepted so far.
        self._newest = -math.inf
        self._oldest = math.inf
        #: spans inserted but not yet indexed.  Two cursors track how far
        #: each commit pass has consumed it; once both passes catch up,
        #: the tail is emptied.
        self._tail: list[Span] = []
        self._keys_committed = 0
        self._time_committed = 0
        #: incremental association-graph components (fast path).  Updated
        #: by the key commit — read it through :meth:`component_ids` /
        #: :meth:`component_spans`, or call :meth:`flush` first.
        self.graph = TraceGraphIndex()
        if metrics is None:
            metrics = PipelineMetrics()
        self._m_duplicates = metrics.counter(
            "store.duplicate_spans", "spans skipped: id already stored")
        self._m_late = metrics.counter(
            "store.late_spans",
            "spans skipped: older than the retention horizon on arrival")
        self._m_segments_dropped = metrics.counter(
            "store.segments_dropped", "time segments dropped by retention")
        self._m_spans_dropped = metrics.counter(
            "store.spans_dropped", "spans dropped with their segment")

    def __len__(self) -> int:
        return len(self._spans)

    # -- ingest ------------------------------------------------------------

    def insert_many(self, spans: Iterable[Span],
                    now: Optional[float] = None) -> Iterable[Span]:
        """Batch ingest: register each span and append it to the tail.

        This is everything ingest pays — the duplicate check, the
        segment check, the id map, one list append.  Posting maps, the
        union-find and the time runs catch up lazily (:meth:`_commit_keys`
        / :meth:`_commit_time_index`) the first time a query needs them,
        in one fused pass over however many batches arrived since.

        A span whose id is already stored (an at-least-once re-ship) or
        whose segment is already past retention is skipped and counted;
        the rest are stored; the store never writes into a span.
        Returns the stored spans: *spans* itself when none was skipped
        or dropped.

        Retention follows the newest segment stored, but a span that
        starts in a window after the ingest clock *now* is stored
        without advancing it: one bogus future timestamp cannot expire
        the store.  Without *now*, every span may advance it.
        """
        spans_map = self._spans
        tail = self._tail
        mark = len(tail)
        tail_append = tail.append
        window = self.window
        retention = self._retention
        newest = self._newest
        oldest = self._oldest
        floor = newest - retention
        clock = math.inf if now is None else now // window
        duplicates = late = 0
        for span in spans:
            span_id = span.span_id
            if span_id in spans_map:
                duplicates += 1
                continue
            segment = span.start_time // window
            if segment != newest:
                if segment > newest:
                    if segment <= clock:
                        newest = segment
                        floor = segment - retention
                elif segment < floor:
                    late += 1
                    continue
                if segment < oldest:
                    oldest = segment
            spans_map[span_id] = span
            tail_append(span)
        self._newest = newest
        self._oldest = oldest
        if duplicates or late:
            self._m_duplicates.inc(duplicates)
            self._m_late.inc(late)
            spans = tail[mark:]
        if oldest < floor:
            spans = self._expire(floor, tail[mark:])
        return spans

    # -- index commits -----------------------------------------------------

    def _commit_keys(self) -> None:
        """Index the tail's association keys (postings + union-find).

        A missing posting is created as a bare span id, a bare id becomes
        a ``[first, new]`` list on its first collision and a list is
        appended to.  Either collision records one (new span, newest
        carrier) link: a span that shares a key only with stragglers of
        a retired trace joins the newest straggler's fragment.
        """
        tail = self._tail
        start = self._keys_committed
        if start == len(tail):
            return
        postings = self._postings
        links: list[tuple[int, int]] = []
        links_append = links.append
        for span in tail[start:]:
            span_id = span.span_id
            for tag, value in association_keys(span):
                axis = postings[tag]
                ids = axis.get(value)
                if ids is None:
                    axis[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    axis[value] = [ids, span_id]
                else:
                    links_append((span_id, ids[-1]))
                    ids.append(span_id)
        self._keys_committed = len(tail)
        if links:
            self.graph.link_batch(links)
        self._shrink_tail()

    def _commit_time_index(self) -> None:
        """Merge the tail into the segments' sorted time runs.

        Ingest pays a plain list append per span; the sort happens here,
        over the new tail slice only.  The sorted spans are cut into one
        slice per segment they cover — usually one — and each slice
        joins its segment's run (:meth:`_extend_run`).
        """
        tail = self._tail
        start = self._time_committed
        if start == len(tail):
            return
        spans = tail[start:]
        spans.sort(key=CANONICAL_ORDER)
        self._time_committed = len(tail)
        self._shrink_tail()
        window = self.window
        count = len(spans)
        last = spans[-1].start_time // window
        lo = 0
        while lo < count:
            key = spans[lo].start_time // window
            if key == last:
                hi = count
            else:
                hi = bisect.bisect_left(
                    spans, key + 1, lo, count,
                    key=lambda span: span.start_time // window)
            self._extend_run(key, spans[lo:hi] if lo or hi < count
                             else spans)
            lo = hi

    def _extend_run(self, key: float, spans: list[Span]) -> None:
        """Join sorted *spans* to segment *key*'s run and update its
        slowest span per side.  An in-order slice extends the run; an
        out-of-order one re-sorts only the run past the first new span's
        place, so a late batch costs its overlap, not a sort key per
        stored span."""
        slowest = self._slowest
        maxima = slowest.get(key)
        if maxima is None:
            maxima = slowest[key] = {}
        for span in spans:
            side = span.side
            duration = span.end_time - span.start_time
            best = maxima.get(side)
            # Ties go to the earlier span, as ``max`` over the run would.
            if (best is None or duration > best[0]
                    or duration == best[0]
                    and CANONICAL_ORDER(span) < CANONICAL_ORDER(best[1])):
                maxima[side] = (duration, span)
        segments = self._segments
        run = segments.get(key)
        if run is not None:
            first = CANONICAL_ORDER(spans[0])
            if CANONICAL_ORDER(run[-1]) < first:
                run.extend(spans)
                return
            at = bisect.bisect_left(run, first, key=CANONICAL_ORDER)
            overlap = run[at:]
            overlap += spans
            overlap.sort(key=CANONICAL_ORDER)
            run[at:] = overlap
            return
        out_of_order = bool(segments) and key < next(reversed(segments))
        segments[key] = spans
        if out_of_order:  # a late window opened: restore key order
            self._segments = dict(sorted(segments.items()))

    def _shrink_tail(self) -> None:
        """Drop the tail once every commit pass has consumed it."""
        if self._keys_committed == self._time_committed == len(self._tail):
            self._tail.clear()
            self._keys_committed = 0
            self._time_committed = 0

    def flush(self) -> None:
        """Force all deferred index maintenance to run now.

        Queries trigger the commits they need on their own; this exists
        for callers that want index cost out of a measured or latency-
        critical window (benchmarks, snapshot/export paths).
        """
        self._commit_keys()
        self._commit_time_index()

    def commit_keys(self) -> None:
        """Force only the key-index commit (postings + union-find), leaving
        the time runs deferred — the trace-path subset of :meth:`flush`."""
        self._commit_keys()

    # -- retention -----------------------------------------------------------

    def _expire(self, floor: float, batch: list[Span]) -> list[Span]:
        """Drop every segment whose key is below *floor*, whole: its
        rows, its posting entries and its time run.  Each posting the
        drop touches is rebuilt once from its surviving carriers, in
        order — O(k) for a key carried by k spans, where removing the
        dropped ids one by one would cost O(k²) — and goes back to a
        bare id when one carrier is left.  The union-find has no delete,
        so a fresh forest is then built from the survivors' postings,
        each shared posting linked to its first carrier; the event sink
        moves over afterwards, so a drop emits no component events.
        Runs at most once per window, when the newest segment advances.
        Returns the spans of *batch*, the one being stored, that are
        still stored: a batch that crosses the horizon can drop its own
        first spans."""
        self._commit_keys()
        self._commit_time_index()
        segments = self._segments
        slowest = self._slowest
        spans_map = self._spans
        postings = self._postings
        expired = [key for key in segments if key < floor]
        dropped = 0
        # (tag, value) → axis of every shared posting the drop touches.
        touched: dict[tuple[str, object], dict] = {}
        for key in expired:
            run = segments.pop(key)
            del slowest[key]
            dropped += len(run)
            for span in run:
                del spans_map[span.span_id]
                for tag, value in association_keys(span):
                    axis = postings[tag]
                    if axis[value].__class__ is int:
                        del axis[value]
                    else:
                        touched[tag, value] = axis
        kept = spans_map.__contains__
        for (_tag, value), axis in touched.items():
            ids = axis[value]
            ids[:] = filter(kept, ids)
            if not ids:
                del axis[value]
            elif len(ids) == 1:
                axis[value] = ids[0]
        self._oldest = min(segments, default=math.inf)
        links: list[tuple[int, int]] = []
        links_append = links.append
        for axis in postings.values():
            for ids in axis.values():
                if ids.__class__ is not int:
                    first = ids[0]
                    for span_id in ids[1:]:
                        links_append((span_id, first))
        graph = TraceGraphIndex()
        graph.link_batch(links)
        graph.events = self.graph.events
        self.graph = graph
        self._m_segments_dropped.inc(len(expired))
        self._m_spans_dropped.inc(dropped)
        return [span for span in batch if span.span_id in spans_map]

    # -- component-changed events (continuous pipeline) ---------------------

    def arm_component_events(self) -> None:
        """Turn on the union-find's link-event sink.

        From here on, every shared-key link the key commit discovers is
        also logged as an ``(a, b)`` pair for
        :meth:`take_component_events` — the push-path signal the
        continuous assembler consumes.  Idempotent.
        """
        if self.graph.events is None:
            self.graph.events = []

    def take_component_events(self) -> list[tuple[int, int]]:
        """Commit pending keys and drain the accumulated link events.

        Each event says "span *a* was just linked into span *b*'s
        component".  Returns an empty list when nothing merged.
        Requires :meth:`arm_component_events` first.
        """
        self._commit_keys()
        graph = self.graph
        events = graph.events
        if not events:
            return []
        graph.events = []
        return events

    def pending_key_count(self) -> int:
        """How many tail spans the key commit has not yet indexed."""
        return len(self._tail) - self._keys_committed

    def get(self, span_id: int) -> Optional[Span]:
        """Fetch the span by id, or None."""
        return self._spans.get(span_id)

    def all_spans(self) -> list[Span]:
        """Every stored span, as a list."""
        return list(self._spans.values())

    # -- Algorithm 1 support -------------------------------------------------

    def carriers(self, tagged_keys: Iterable[tuple]) -> set[int]:
        """Ids of the spans carrying any of *tagged_keys* —
        ``(tag, value)`` pairs as :func:`repro.server.index.
        association_keys` yields them — with pending keys committed
        first.  The postings' one read-only window: what the iterative
        reference search (:mod:`repro.server.reference`) asks each round.
        """
        self._commit_keys()
        postings = self._postings
        result: set[int] = set()
        for tag, value in tagged_keys:
            ids = postings[tag].get(value)
            if ids is None:
                continue
            if ids.__class__ is int:
                result.add(ids)
            else:
                result.update(ids)
        return result

    def component_ids(self, span_id: int) -> set[int]:
        """Fast path: the span's whole trace component from the
        union-find, as a read-only set (near-O(α) lookup once the
        pending tail, if any, is committed)."""
        if span_id not in self._spans:
            raise KeyError(f"unknown span id {span_id}")
        self._commit_keys()
        return self.graph.component(span_id)

    def component_key(self, span_id: int) -> tuple[int, int]:
        """:meth:`TraceGraphIndex.component_key` in the current
        ``graph``, with pending keys committed first."""
        if span_id not in self._spans:
            raise KeyError(f"unknown span id {span_id}")
        self._commit_keys()
        return self.graph.component_key(span_id)

    def component_spans(self, span_id: int) -> list[Span]:
        """Fast path: every span in *span_id*'s trace component."""
        return self.spans_of(self.component_ids(span_id))

    def spans_of(self, span_ids: set[int]) -> list[Span]:
        """The stored spans among *span_ids*, others skipped.  The
        id-map view intersects in C, probing the smaller side."""
        spans = self._spans
        return list(map(spans.__getitem__, spans.keys() & span_ids))

    # -- span-list queries (Fig 15) -----------------------------------------

    def span_list(self, start: float, end: float,
                  predicate: Optional[Callable[[Span], bool]] = None
                  ) -> list[Span]:
        """Spans with start_time in [start, end) in (start_time,
        span_id) order, optionally filtered: the overlapping segments'
        slices, concatenated in segment order."""
        self._commit_time_index()
        spans: list[Span] = []
        for run in self._segments.values():
            if run[-1].start_time < start:
                continue
            if run[0].start_time >= end:
                break
            spans += run[bisect.bisect_left(run, start, key=_START):
                         bisect.bisect_left(run, end, key=_START)]
        if predicate is not None:
            spans = [span for span in spans if predicate(span)]
        return spans

    def slowest_span(self, side: SpanSide, start: float = 0.0,
                     end: float = math.inf) -> Optional[Span]:
        """The longest span of *side* with start_time in [start, end),
        the first in :meth:`span_list` order of equal ones: the kept
        maximum of every segment the range covers, a scan of the slice
        of the (at most two) segments it covers in part."""
        self._commit_time_index()
        slowest = self._slowest
        best = None
        best_duration = -math.inf
        for key, run in self._segments.items():
            first = run[0].start_time
            last = run[-1].start_time
            if last < start:
                continue
            if first >= end:
                break
            if start <= first and last < end:
                kept = slowest[key].get(side)
                if kept is not None and kept[0] > best_duration:
                    best_duration, best = kept
                continue
            for span in run[bisect.bisect_left(run, start, key=_START):
                            bisect.bisect_left(run, end, key=_START)]:
                if span.side is side and span.duration > best_duration:
                    best_duration, best = span.duration, span
        return best
