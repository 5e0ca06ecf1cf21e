"""The server's one span store: N shards over one component forest.

DeepFlow's server tier scales ingest and query by partitioning span
storage across nodes while Algorithm 1 still has to stitch whole traces
across partition boundaries.  :class:`ShardedSpanStore` reproduces that
architecture in-process: N :class:`repro.server.database.SpanStore`
shards (one by default, which keeps no owner table) partitioning span
rows, postings and the time index; a stateless hash router; one
union-find forest every shard links into; and a boundary-key layer
linking keys seen on several shards into that same forest — the
cross-partition problem CrossTrace (arXiv:2508.11342) isolates, solved
with one merge per straddling key rather than one per span.

Routing
-------
A span routes by a stable hash of its *primary* association key (first
present axis in a fixed priority order: systrace id, X-Request-ID,
third-party trace id, per-flow request sequence, pseudo-thread, queue
message key, falling back to the span id) mixed with a **time-window
index** (``start_time // window``), so one shard owns one key's spans
within one window and windows can later seal into immutable runs.  A
tenant label, when given, salts the hash so tenants spread independently.
The router is stateless — no global span→shard map is maintained; point
lookups probe the shards (queries are orders of magnitude rarer than
inserts, and keeping ingest memory flat is the point of sharding).

Each shard keeps its own write-optimized memtable discipline: routing a
batch costs one hash per span, and the shard-side insert stays register
+ tail append.  All index maintenance still commits lazily per shard.
Shards are a memory partition, not a speed-up: routing by any one key
cuts a trace into pieces (EXPERIMENTS.md "Pull trace query"), so trace
membership lives in the shared forest, not in the shards.

Boundary keys and trace()
-------------------------
Because routing uses one key and windowing splits even that key across
time, spans sharing *any* association key can land on different shards.
Each shard's key commit links the spans that share a key *within* the
shard into the shared forest, and logs the keys it sees for the **first
time** (one event per distinct key per shard, piggy-backed on the
posting creation it already performs).  :meth:`ShardedSpanStore.
merge_boundaries` walks those logs in shard order through **one owner
table**, key → first observing (shard, span): a key met again from a
second shard contributes one link between the two shards' carriers.
Each log is in commit order, the walk is in shard order and the table
is probed by equality, so the links and their order are a function of
the insert sequence alone — the same in every process, with no stable
hash of a key involved.  A trace query is one ``find`` in the forest
and one C-level intersection per shard to read out the rows it holds.
The component equals what one shard holding every span returns (the
boundary links restore exactly the cross-shard shared-key edges;
tests/test_trace_index_properties.py holds the two in lock step for
shard counts up to 8).

The two phases are separate methods — :meth:`seal_shard` commits one
shard, :meth:`merge_boundaries` consumes what the commits logged — so
each can be tested and timed on its own; callers that don't care use
:meth:`flush` or just query (queries trigger the commits they need,
same as a shard does).
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Callable, Iterable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import Span
from repro.server.database import SpanStore
from repro.server.index import TraceGraphIndex

__all__ = ["DEFAULT_WINDOW", "MAX_SHARDS", "ShardedSpanStore"]

#: Default routing time-window, seconds.  Matches the agent's default
#: session slot: one window of one key's spans lands on one shard.
DEFAULT_WINDOW = 60.0

#: Shard indexes are packed into the low bits of the boundary owner
#: table's values, so the fleet size is bounded (generously).
MAX_SHARDS = 64

#: Knuth/Fibonacci multiplicative mixers for integer routing keys.
_MIX_KEY = 0x9E3779B1
_MIX_WINDOW = 0x85EBCA6B


def _slow_route_hash(value: object) -> int:
    """Stable hash for the rare non-int routing keys (tuples: the
    pseudo-thread key, the flow key).  Allocates; the router's fast
    path never reaches here for spans carrying an integer axis."""
    return zlib.crc32(repr(value).encode("utf-8", "surrogatepass"))


class ShardedSpanStore:
    """N-way sharded span store presenting the ``SpanStore`` query API.

    Drop-in for :class:`repro.server.assembler.TraceAssembler`
    (``component_spans``) and for the iterative Algorithm 1 reference
    (``get`` / ``carriers``), which fans each round's frontier keys out
    to every shard.  Every shard's ``graph`` is the store's one
    :attr:`graph`.
    """

    def __init__(self, shard_count: int = 4, *,
                 window: float = DEFAULT_WINDOW,
                 metrics: Optional[PipelineMetrics] = None) -> None:
        if not 1 <= shard_count <= MAX_SHARDS:
            raise ValueError(
                f"shard_count must be in [1, {MAX_SHARDS}]")
        if window <= 0:
            raise ValueError("window must be positive")
        self.shard_count = shard_count
        self.window = window
        #: The one union-find over span ids: every shard's key commit
        #: and every cross-shard boundary link merge into it.
        self.graph = TraceGraphIndex()
        self.shards: list[SpanStore] = []
        for _ in range(shard_count):
            shard = SpanStore()
            shard.graph = self.graph
            if shard_count > 1:  # no key can straddle one shard
                # Arm the first-seen-key log: the boundary layer consumes it.
                shard.first_seen_keys = []
            self.shards.append(shard)
        #: The boundary owner table: tagged key → packed
        #: ``(span_id << 6) | shard_index`` of the first observer.
        self._owners: dict[tuple, int] = {}
        if metrics is None:
            metrics = PipelineMetrics()
        self._m_routed = metrics.counter(
            "router.spans_routed", "spans hashed to a shard")
        #: Cross-shard links applied so far: how much of the keyspace
        #: actually straddles shards.
        self._m_boundary = metrics.counter(
            "router.boundary_links",
            "cross-shard links merged into the component forest")

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # -- routing -----------------------------------------------------------

    def _route(self, span: Span, salt: int) -> int:
        """Shard index for one span: primary-key hash × time window.

        Allocation-free on the common path — integer axes mix with
        multiplicative constants; only tuple-keyed spans fall through to
        the (cold) repr/crc32 helper.
        """
        window = int(span.start_time / self.window)
        value = span.systrace_id
        if value is not None:
            h = value * _MIX_KEY
        else:
            text = span.x_request_id
            if text:
                h = zlib.crc32(text.encode("utf-8"))
            else:
                text = span.otel_trace_id
                if text:
                    h = zlib.crc32(text.encode("utf-8"))
                elif span.flow_key is not None \
                        and span.req_tcp_seq is not None:
                    h = (_slow_route_hash(span.flow_key)
                         + span.req_tcp_seq * _MIX_KEY)
                elif span.pseudo_thread_key:
                    h = _slow_route_hash(span.pseudo_thread_key)
                elif span.message_id is not None:
                    h = span.message_id * _MIX_KEY
                else:
                    h = span.span_id * _MIX_KEY
        h += window * _MIX_WINDOW + salt
        h ^= h >> 16
        return h % self.shard_count

    def route_batches(self, spans: Iterable[Span],
                      tenant: Optional[str] = None) -> list[list[Span]]:
        """Partition *spans* into per-shard insert batches (pure); a
        tenant label salts the routes (0 for the default tenant)."""
        batches: list[list[Span]] = [[] for _ in range(self.shard_count)]
        salt = zlib.crc32(tenant.encode("utf-8")) if tenant else 0
        route = self._route
        for span in spans:
            batches[route(span, salt)].append(span)
        return batches

    # -- ingest ------------------------------------------------------------

    def insert_many(self, spans: Iterable[Span],
                    tenant: Optional[str] = None) -> None:
        """Route each span and register it with its shard.

        Ingest pays one routing hash plus the shard's register + tail
        append per span; every index — per-shard secondary indexes and
        time runs, the shared union-find, and the cross-shard boundary
        table — catches up lazily when a query (or :meth:`flush`) needs
        it.  A *tenant* that is not None is stamped into ``span.tags``
        and, if non-empty, salted into the route.

        Duplicate span ids are rejected per shard (same guarantee a
        distributed deployment can give without a global id service),
        the whole batch retracted; two *different* spans reusing one id
        may land on two shards undetected — span ids are
        allocator-unique by construction.
        """
        shards = self.shards
        batches = self.route_batches(spans, tenant)
        for index, batch in enumerate(batches):
            if batch:
                if tenant is not None:
                    for span in batch:
                        span.tags.setdefault("tenant", tenant)
                # One tight loop (duplicate check + append) per shard.
                try:
                    shards[index].insert_many(batch)
                except ValueError:
                    for shard, taken in zip(shards[:index], batches):
                        shard.retract(len(taken))
                    raise
        self._m_routed.inc(sum(map(len, batches)))

    # -- commit / seal phases ---------------------------------------------

    def seal_shard(self, shard_index: int) -> int:
        """Commit one shard's deferred indexes; the keys it saw for the
        first time stay queued on its ``first_seen_keys`` log until
        :meth:`merge_boundaries`.  Returns how many are queued."""
        shard = self.shards[shard_index]
        shard.flush()
        return len(shard.first_seen_keys or ())

    def merge_boundaries(self) -> None:
        """Walk the queued first-seen logs, in shard order, through the
        owner table and apply the cross-shard links they reveal as one
        batch."""
        owners = self._owners
        links: list[tuple[int, int]] = []
        links_append = links.append
        for shard_index, shard in enumerate(self.shards):
            log = shard.first_seen_keys
            if not log:
                continue
            shard.first_seen_keys = []
            for tag, value, span_id in log:
                key = (tag, value)
                packed = owners.get(key)
                if packed is None:
                    owners[key] = (span_id << 6) | shard_index
                elif (packed & 63) != shard_index:
                    # Key straddles shards: link this shard's first
                    # carrier to the owning shard's representative.
                    links_append((span_id, packed >> 6))
                # Same-shard re-observation cannot happen (the shard
                # logs a key once), so any other case is already linked.
        if links:
            self.graph.link_batch(links)
            self._m_boundary.inc(len(links))

    def flush(self) -> None:
        """Force all deferred maintenance: every shard's commits, then
        the cross-shard merge."""
        for shard_index in range(self.shard_count):
            self.seal_shard(shard_index)
        self.merge_boundaries()

    def _ensure_traceable(self) -> None:
        """Bring key indexes and the forest's boundary links up to date
        (the lazy-commit step trace queries trigger)."""
        queued = False
        for shard in self.shards:
            if shard.pending_key_count():
                shard.commit_keys()
            if shard.first_seen_keys:
                queued = True
        if queued:
            self.merge_boundaries()

    # -- component-changed events (continuous pipeline) ---------------------

    def arm_component_events(self) -> None:
        """Arm the forest's link-event sink: the continuous assembler
        then sees intra-shard merges and cross-shard merges through one
        drain.  Idempotent."""
        if self.graph.events is None:
            self.graph.events = []

    def take_component_events(self) -> list[tuple[int, int]]:
        """Commit pending work on every shard, merge boundaries, and
        drain the forest's accumulated link events.

        Shard links come first, in shard order (their spans must exist
        before a cross-shard link can cite them), then boundary links —
        each as "span *a* joined span *b*'s component".
        """
        self._ensure_traceable()
        graph = self.graph
        events = graph.events
        if not events:
            return []
        graph.events = []
        return events

    # -- point lookups -----------------------------------------------------

    def shard_of(self, span_id: int) -> Optional[int]:
        """Which shard holds *span_id* (None if unknown): the probe a
        router with no span → shard map pays on every point lookup."""
        for index, shard in enumerate(self.shards):
            if shard.get(span_id) is not None:
                return index
        return None

    def get(self, span_id: int) -> Optional[Span]:
        """Fetch a span by id, probing the shards."""
        index = self.shard_of(span_id)
        return None if index is None else self.shards[index].get(span_id)

    def all_spans(self) -> list[Span]:
        """Every stored span across all shards."""
        out: list[Span] = []
        for shard in self.shards:
            out.extend(shard.all_spans())
        return out

    # -- Algorithm 1 support ------------------------------------------------

    def component_ids(self, span_id: int) -> set[int]:
        """*span_id*'s whole trace component across every shard: one
        ``find`` in the shared forest once pending keys are committed
        and boundaries merged.  The live member set — read-only, like
        :meth:`SpanStore.component_ids`."""
        if self.shard_of(span_id) is None:
            raise KeyError(f"unknown span id {span_id}")
        self._ensure_traceable()
        return self.graph.component(span_id)

    def component_spans(self, span_id: int) -> list[Span]:
        """Every span in *span_id*'s trace component, each shard reading
        out the members it holds: one intersection per shard, whatever
        the number of pieces routing cut the trace into (flat Fig-15
        curve)."""
        ids = self.component_ids(span_id)
        spans: list[Span] = []
        for shard in self.shards:
            spans += shard.spans_of(ids)
        return spans

    def carriers(self, tagged_keys: Iterable[tuple]) -> set[int]:
        """Scatter :meth:`SpanStore.carriers` to every shard — each
        commits its pending keys before answering — and union the
        matches: one fan-out per round of the iterative reference
        search, whichever shards hold the postings."""
        tagged_keys = list(tagged_keys)
        result: set[int] = set()
        for shard in self.shards:
            result |= shard.carriers(tagged_keys)
        return result

    # -- span-list queries (Fig 15) ----------------------------------------

    def span_list(self, start: float, end: float,
                  predicate: Optional[Callable[[Span], bool]] = None
                  ) -> list[Span]:
        """Spans with start_time in [start, end) in (start_time,
        span_id) order, optionally filtered: the shards' sorted slices,
        concatenated in shard order and merged by one sort (Timsort
        merges sorted runs in C)."""
        merged: list[tuple[float, int, Span]] = []
        for shard in self.shards:
            merged += shard.time_range(start, end)
        try:
            merged = sorted(merged)
        except TypeError:
            # Two shards held different spans under one id (see
            # ``insert_many``): the tie compared spans.  Lower shard first.
            merged.sort(key=itemgetter(0, 1))
        if predicate is None:
            return [entry[2] for entry in merged]
        return [span for _start, _id, span in merged if predicate(span)]

    # -- observability -----------------------------------------------------

    def shard_stats(self) -> dict:
        """Balance and boundary-pressure counters."""
        sizes = [len(shard) for shard in self.shards]
        total = sum(sizes)
        return {
            "shards": self.shard_count,
            "spans": total,
            "shard_sizes": sizes,
            "imbalance": (max(sizes) * self.shard_count / total
                          if total else 1.0),
            "boundary_keys": len(self._owners),
            "boundary_links": self._m_boundary.value,
        }
