"""The span store: one id map, one posting map, one forest, time segments.

The server's store is :class:`repro.server.sharding.ShardedSpanStore`,
this class with a retention depth; filtering span lists by tenant is the
server's job.

Every association key of Algorithm 1 (systrace_id, pseudo-thread,
X-Request-ID, per-flow TCP sequence, third-party trace id, queue message
key) has a per-axis posting map, and the same keys feed an incremental
union-find (:class:`repro.server.index.TraceGraphIndex`), so trace
membership is answered without iterating at all; the paper's iterative
search (:mod:`repro.server.reference`) reads the postings through
:meth:`SpanStore.carriers`.

Span lists (the Fig 15 workload) read **time segments**, the way
DeepFlow's ClickHouse tables are partitioned by time: a span's segment
is ``start_time // window``, and each segment keeps its spans as one
sorted ``(start_time, span_id, span)`` run.  Segment order is time
order, so a range read concatenates the slices of the segments it
overlaps — no merge.  A segment is also the retention unit: once the
newest span's segment is more than the retention depth past it, the
segment is dropped whole (:meth:`SpanStore._expire`).

Ingest is the hot path — every span the fleet of agents ships lands in
:meth:`SpanStore.insert_many` — so the store is write-optimized the way
an LSM memtable is: an insert only registers the span (id map, for
duplicate detection and ``get``) and appends it to an unindexed *tail*.
All index maintenance — posting maps, the union-find, the segments'
time runs — happens in commit passes that each query triggers for
exactly the tail it needs, one fused pass per batch of inserts.  The
commit loop uses raw identifier keys (an int systrace id hashes in a
fraction of the time a tagged tuple does), inlines the axis checks from
:func:`repro.server.index.association_keys` (the property test holds the
two definitions in lock step), and hands union-find merges to
:meth:`TraceGraphIndex.link_batch` as (new span, existing carrier)
pairs.  :meth:`SpanStore.flush` forces both commits, letting benchmarks
price ingest, index commit, and queries separately.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter
from typing import Callable, Iterable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import Span
from repro.server.index import (QUEUE_RELAY_PROTOCOLS, TraceGraphIndex,
                                association_keys)

__all__ = ["DEFAULT_WINDOW", "QUEUE_RELAY_PROTOCOLS", "SpanStore"]

#: Default time-segment width, seconds: the agent's default session slot.
DEFAULT_WINDOW = 60.0

_SPAN = itemgetter(2)


class SpanStore:
    """In-memory indexed span storage with an incremental trace index.

    Keeps every span it accepts; :class:`repro.server.sharding.
    ShardedSpanStore` is the same store with a retention depth.
    """

    def __init__(self, metrics: Optional[PipelineMetrics] = None) -> None:
        self._spans: dict[int, Span] = {}
        # Per-axis posting maps, raw identifier → posting.  Raw keys
        # (int/str/tuple) hash faster than tagged tuples; the tags are
        # only needed where axes meet (:meth:`carriers`).  A posting
        # starts as a bare span id and is promoted to a set on its
        # first collision — most keys (e.g. per-flow TCP sequences) are
        # carried by exactly one span, and skipping the singleton set
        # allocation is a measurable share of the ingest budget.
        self._by_sys: dict[int, object] = {}
        self._by_pt: dict[tuple, object] = {}
        self._by_xr: dict[str, object] = {}
        self._by_fs: dict[tuple, object] = {}
        self._by_ot: dict[str, object] = {}
        self._by_mq: dict[tuple, object] = {}
        #: segment key (``start_time // window``) → that window's sorted
        #: run of ``(start_time, span_id, span)``, in key order.  Ids are
        #: unique store-wide, so spans are never compared.
        self._segments: dict[float, list[tuple[float, int, Span]]] = {}
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
                    tenant: Optional[str] = None,
                    now: Optional[float] = None) -> Iterable[Span]:
        """Batch ingest: register each span and append it to the tail.

        This is everything ingest pays — the duplicate check, the
        segment check, the id map, one list append.  Posting maps, the
        union-find and the time runs catch up lazily (:meth:`_commit_keys`
        / :meth:`_commit_time_index`) the first time a query needs them,
        in one fused pass over however many batches arrived since.

        A span whose id is already stored (an at-least-once re-ship) or
        whose segment is already past retention is skipped and counted;
        the rest are stored.  A *tenant* that is not None is stamped into
        each stored span's ``tags``.  Returns the stored spans: *spans*
        itself when none was skipped or dropped.

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
            if tenant is not None:
                span.tags.setdefault("tenant", tenant)
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
        """Index the tail's association keys (axes + union-find).

        The per-axis branches below are the inlined form of
        :func:`repro.server.index.association_keys`; keep them in sync
        (tests/test_trace_index_properties.py proves the equivalence).
        Each branch is the same shape: a missing posting is created as a
        bare span id, a scalar posting is promoted to a set, and either
        collision case records one (new span, existing carrier) link.
        """
        tail = self._tail
        start = self._keys_committed
        if start == len(tail):
            return
        by_sys = self._by_sys
        by_pt = self._by_pt
        by_xr = self._by_xr
        by_fs = self._by_fs
        by_ot = self._by_ot
        by_mq = self._by_mq
        links: list[tuple[int, int]] = []
        links_append = links.append
        for span in tail[start:]:
            span_id = span.span_id
            value = span.systrace_id
            if value is not None:
                ids = by_sys.get(value)
                if ids is None:
                    by_sys[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    by_sys[value] = {ids, span_id}
                else:
                    links_append((span_id, next(iter(ids))))
                    ids.add(span_id)
            value = span.pseudo_thread_key
            if value:
                ids = by_pt.get(value)
                if ids is None:
                    by_pt[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    by_pt[value] = {ids, span_id}
                else:
                    links_append((span_id, next(iter(ids))))
                    ids.add(span_id)
            value = span.x_request_id
            if value:
                ids = by_xr.get(value)
                if ids is None:
                    by_xr[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    by_xr[value] = {ids, span_id}
                else:
                    links_append((span_id, next(iter(ids))))
                    ids.add(span_id)
            flow = span.flow_key
            if flow is not None:
                seq = span.req_tcp_seq
                if seq is not None:
                    value = (flow, "q", seq)
                    ids = by_fs.get(value)
                    if ids is None:
                        by_fs[value] = span_id
                    elif ids.__class__ is int:
                        links_append((span_id, ids))
                        by_fs[value] = {ids, span_id}
                    else:
                        links_append((span_id, next(iter(ids))))
                        ids.add(span_id)
                seq = span.resp_tcp_seq
                if seq is not None:
                    value = (flow, "p", seq)
                    ids = by_fs.get(value)
                    if ids is None:
                        by_fs[value] = span_id
                    elif ids.__class__ is int:
                        links_append((span_id, ids))
                        by_fs[value] = {ids, span_id}
                    else:
                        links_append((span_id, next(iter(ids))))
                        ids.add(span_id)
            value = span.otel_trace_id
            if value:
                ids = by_ot.get(value)
                if ids is None:
                    by_ot[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    by_ot[value] = {ids, span_id}
                else:
                    links_append((span_id, next(iter(ids))))
                    ids.add(span_id)
            if (span.message_id is not None
                    and span.protocol in QUEUE_RELAY_PROTOCOLS):
                value = (span.protocol, span.resource, span.message_id)
                ids = by_mq.get(value)
                if ids is None:
                    by_mq[value] = span_id
                elif ids.__class__ is int:
                    links_append((span_id, ids))
                    by_mq[value] = {ids, span_id}
                else:
                    links_append((span_id, next(iter(ids))))
                    ids.add(span_id)
        self._keys_committed = len(tail)
        if links:
            self.graph.link_batch(links)
        self._shrink_tail()

    def _commit_time_index(self) -> None:
        """Merge the tail into the segments' sorted time runs.

        Sort entries are only built here, so ingest pays a plain list
        append per span.  The sorted entries are cut into one slice per
        segment they cover — usually one — and each slice is appended to
        its segment's run (:meth:`_extend_run`).
        """
        tail = self._tail
        start = self._time_committed
        if start == len(tail):
            return
        entries = [(span.start_time, span.span_id, span)
                   for span in tail[start:]]
        entries.sort()
        self._time_committed = len(tail)
        self._shrink_tail()
        window = self.window
        count = len(entries)
        last = entries[-1][0] // window
        lo = 0
        while lo < count:
            key = entries[lo][0] // window
            if key == last:
                hi = count
            else:
                hi = bisect.bisect_left(
                    entries, key + 1, lo, count,
                    key=lambda entry: entry[0] // window)
            self._extend_run(key, entries[lo:hi] if lo or hi < count
                             else entries)
            lo = hi

    def _extend_run(self, key: float, entries: list[tuple]) -> None:
        """Append sorted *entries* to segment *key*'s run.  ``list.sort``
        is adaptive: an out-of-order slice leaves two sorted runs, which
        Timsort merges in O(n) comparisons."""
        segments = self._segments
        run = segments.get(key)
        if run is not None:
            in_order = run[-1] <= entries[0]
            run.extend(entries)
            if not in_order:
                run.sort()
            return
        out_of_order = bool(segments) and key < next(reversed(segments))
        segments[key] = entries
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
        """Force only the key-index commit (axes + union-find), leaving
        the time runs deferred — the trace-path subset of :meth:`flush`."""
        self._commit_keys()

    # -- retention -----------------------------------------------------------

    def _expire(self, floor: float, batch: list[Span]) -> list[Span]:
        """Drop every segment whose key is below *floor*, whole: its
        rows, its posting entries and its time run.  The union-find has
        no delete, so a fresh forest is then built from the survivors'
        postings, each shared posting linked to its first carrier; the
        event sink moves over afterwards, so a drop emits no component
        events.  Runs at most once per window, when the newest segment
        advances.  Returns the spans of *batch*, the one being stored,
        that are still stored: a batch that crosses the horizon can drop
        its own first spans."""
        self._commit_keys()
        self._commit_time_index()
        segments = self._segments
        spans_map = self._spans
        axes = self._axes()
        expired = [key for key in segments if key < floor]
        dropped = 0
        for key in expired:
            run = segments.pop(key)
            dropped += len(run)
            for _start, span_id, span in run:
                del spans_map[span_id]
                for tag, value in association_keys(span):
                    postings = axes[tag]
                    ids = postings[value]
                    if ids.__class__ is int:
                        del postings[value]
                    else:
                        ids.discard(span_id)
                        if len(ids) == 1:
                            postings[value] = ids.pop()
        self._oldest = min(segments, default=math.inf)
        links: list[tuple[int, int]] = []
        links_append = links.append
        for postings in axes.values():
            for ids in postings.values():
                if ids.__class__ is not int:
                    carriers = iter(ids)
                    first = next(carriers)
                    for span_id in carriers:
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

    def _axes(self) -> dict[str, dict]:
        """Tag → posting map, the tags of :func:`association_keys`."""
        return {"sys": self._by_sys, "pt": self._by_pt, "xr": self._by_xr,
                "fs": self._by_fs, "ot": self._by_ot, "mq": self._by_mq}

    def carriers(self, tagged_keys: Iterable[tuple]) -> set[int]:
        """Ids of the spans carrying any of *tagged_keys* —
        ``(tag, value)`` pairs as :func:`repro.server.index.
        association_keys` yields them — with pending keys committed
        first.  The postings' one read-only window: what the iterative
        reference search (:mod:`repro.server.reference`) asks each round.
        """
        self._commit_keys()
        axes = self._axes()
        result: set[int] = set()
        for tag, value in tagged_keys:
            ids = axes[tag].get(value)
            if ids is None:
                continue
            if ids.__class__ is int:
                result.add(ids)
            else:
                result |= ids
        return result

    def component_ids(self, span_id: int) -> set[int]:
        """Fast path: the span's whole trace component from the
        union-find, as a read-only set (near-O(α) lookup once the
        pending tail, if any, is committed)."""
        if span_id not in self._spans:
            raise KeyError(f"unknown span id {span_id}")
        self._commit_keys()
        return self.graph.component(span_id)

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
        low = (start, -1)
        high = (end, -1)
        spans: list[Span] = []
        for run in self._segments.values():
            if run[-1][0] < start:
                continue
            if run[0][0] >= end:
                break
            spans += map(_SPAN, run[bisect.bisect_left(run, low):
                                    bisect.bisect_left(run, high)])
        if predicate is not None:
            spans = [span for span in spans if predicate(span)]
        return spans
