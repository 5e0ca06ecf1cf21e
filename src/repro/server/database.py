"""One shard of the span store, with association-key indexes.

The server's one store is :class:`repro.server.sharding.ShardedSpanStore`
(one shard by default, with no owner table), which routes and stamps
tenant labels; filtering span lists by tenant is the server's job.

Every association key of Algorithm 1 (systrace_id, pseudo-thread,
X-Request-ID, per-flow TCP sequence, third-party trace id, queue message
key) has a per-axis secondary index, and the same keys feed an
incremental union-find (:class:`repro.server.index.TraceGraphIndex`), so
trace membership is answered without iterating at all; the paper's
iterative search (:mod:`repro.server.reference`) reads the postings
through :meth:`SpanStore.carriers`.  A time index supports span-list
queries over a range (the Fig 15 workload); it is kept as a sorted main
run plus a small unsorted tail merged lazily on first query, so inserts
never pay the O(n) ``bisect.insort`` shift.

Ingest is the hot path — every span the fleet of agents ships lands in
:meth:`SpanStore.insert_many` — so the store is write-optimized the way
an LSM memtable is: an insert only registers the span (id map, for
duplicate rejection and ``get``) and appends it to an unindexed *tail*.
All index maintenance — per-axis secondary indexes, the union-find, the
sorted time run — happens in commit passes that each query triggers for
exactly the tail it needs, one fused pass per batch of inserts.  The
deferred work is not avoided, just coalesced where it is cheapest: the
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
from typing import Callable, Iterable, Optional

from repro.core.span import Span
from repro.server.index import QUEUE_RELAY_PROTOCOLS, TraceGraphIndex

__all__ = ["QUEUE_RELAY_PROTOCOLS", "SpanStore"]


class SpanStore:
    """In-memory indexed span storage with an incremental trace index."""

    def __init__(self) -> None:
        self._spans: dict[int, Span] = {}
        # Per-axis secondary indexes, raw identifier → posting.  Raw
        # keys (int/str/tuple) hash faster than tagged tuples; the tags
        # are only needed where axes meet (:meth:`carriers`).  A posting
        # starts as a bare span id and is promoted to a set on
        # its first collision — most keys (e.g. per-flow TCP sequences)
        # are carried by exactly one span, and skipping the singleton
        # set allocation is a measurable share of the ingest budget.
        self._by_sys: dict[int, object] = {}
        self._by_pt: dict[tuple, object] = {}
        self._by_xr: dict[str, object] = {}
        self._by_fs: dict[tuple, object] = {}
        self._by_ot: dict[str, object] = {}
        self._by_mq: dict[tuple, object] = {}
        #: sorted main run of (start_time, span_id, span), extended from
        #: the tail by the time commit; ids are unique, spans not compared.
        self._time_index: list[tuple[float, int, Span]] = []
        #: spans inserted but not yet indexed.  Two cursors track how far
        #: each commit pass has consumed it; once both passes catch up,
        #: the tail is emptied.
        self._tail: list[Span] = []
        self._keys_committed = 0
        self._time_committed = 0
        #: incremental association-graph components (fast path).  Updated
        #: by the key commit — read it through :meth:`component_ids` /
        #: :meth:`component_spans`, or call :meth:`flush` first.  The
        #: sharded store sets one forest on all its shards.
        self.graph = TraceGraphIndex()
        #: Optional first-seen-key sink.  When armed (set to a list, as
        #: :class:`repro.server.sharding.ShardedSpanStore` does per
        #: shard), the key commit appends one ``(tag, value, span_id)``
        #: event per *distinct* key the first time this store indexes it
        #: — piggy-backing boundary-key detection on the posting
        #: creation the commit already performs.  None (the default)
        #: costs the commit loop one predicate check per key.
        self.first_seen_keys: Optional[list[tuple]] = None

    def __len__(self) -> int:
        return len(self._spans)

    # -- ingest ------------------------------------------------------------

    def insert_many(self, spans: Iterable[Span]) -> None:
        """Batch ingest: register each span and append it to the tail.

        This is everything ingest pays — duplicate rejection, the id
        map, one list append.  Secondary indexes, the union-find, and
        the time run catch up lazily (:meth:`_commit_keys` /
        :meth:`_commit_time_index`) the first time a query needs them,
        in one fused pass over however many batches arrived since.
        All or nothing: a duplicate id retracts this call's spans and
        raises ``ValueError``.
        """
        spans_map = self._spans
        tail = self._tail
        mark = len(tail)
        tail_append = tail.append
        for span in spans:
            span_id = span.span_id
            if span_id in spans_map:
                self.retract(len(tail) - mark)
                raise ValueError(f"duplicate span id {span_id}")
            spans_map[span_id] = span
            tail_append(span)

    def retract(self, count: int) -> None:
        """Unregister the last *count* spans, not yet committed."""
        tail = self._tail
        for span in tail[len(tail) - count:]:
            del self._spans[span.span_id]
        del tail[len(tail) - count:]

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
        log = self.first_seen_keys
        for span in tail[start:]:
            span_id = span.span_id
            value = span.systrace_id
            if value is not None:
                ids = by_sys.get(value)
                if ids is None:
                    by_sys[value] = span_id
                    if log is not None:
                        log.append(("sys", value, span_id))
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
                    if log is not None:
                        log.append(("pt", value, span_id))
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
                    if log is not None:
                        log.append(("xr", value, span_id))
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
                        if log is not None:
                            log.append(("fs", value, span_id))
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
                        if log is not None:
                            log.append(("fs", value, span_id))
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
                    if log is not None:
                        log.append(("ot", value, span_id))
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
                    if log is not None:
                        log.append(("mq", value, span_id))
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
        """Merge the tail into the sorted time run.

        Sort entries are only built here, so ingest pays a plain list
        append per span.  ``list.sort`` is adaptive: when batches arrive
        out of order, appending the sorted new entries leaves two sorted
        runs, which Timsort merges in O(n) comparisons — one merge per
        commit, instead of one O(n) shift per span.
        """
        tail = self._tail
        start = self._time_committed
        if start == len(tail):
            return
        entries = [(span.start_time, span.span_id, span)
                   for span in tail[start:]]
        entries.sort()
        main = self._time_index
        in_order = not main or main[-1] <= entries[0]
        main.extend(entries)
        if not in_order:
            main.sort()
        self._time_committed = len(tail)
        self._shrink_tail()

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
        the time run deferred — the trace-path subset of :meth:`flush`,
        used by the sharded store's seal phase."""
        self._commit_keys()

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
        events = self.graph.events
        if not events:
            return []
        self.graph.events = []
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
        axes = {"sys": self._by_sys, "pt": self._by_pt, "xr": self._by_xr,
                "fs": self._by_fs, "ot": self._by_ot, "mq": self._by_mq}
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
        """The stored spans among *span_ids*, others skipped: the
        sharded store asks every shard for its rows of one component.
        The id-map view intersects in C, probing the smaller side."""
        spans = self._spans
        return list(map(spans.__getitem__, spans.keys() & span_ids))

    # -- span-list queries (Fig 15) -----------------------------------------

    def time_range(self, start: float, end: float) -> list[tuple]:
        """The time run's sorted ``(start_time, span_id, span)``
        entries with start_time in [start, end), as one slice."""
        self._commit_time_index()
        index = self._time_index
        return index[bisect.bisect_left(index, (start, -1)):
                     bisect.bisect_left(index, (end, -1))]

    def span_list(self, start: float, end: float,
                  predicate: Optional[Callable[[Span], bool]] = None
                  ) -> list[Span]:
        """Spans with start_time in [start, end), optionally filtered."""
        spans = [entry[2] for entry in self.time_range(start, end)]
        if predicate is not None:
            spans = [span for span in spans if predicate(span)]
        return spans
