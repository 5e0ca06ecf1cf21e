"""Sharded store at scale: same components as one store, flat query delay.

The Fig-15 story at fleet scale, in its two checkable halves.  The
component of an N-way sharded store (one forest shared by the shards)
equals the unsharded component however many shards the trace straddles
(the boundary links
restore exactly the cross-shard shared-key edges), and the trace query
stays flat as the store grows — component lookup is O(result), not
O(store); that second check is a same-run ratio of one code path at two
store sizes.  Whether sharding buys ingest throughput is not modelled
here: ``benchmarks/e2e/README.md`` measured four in-process shards at
≈0.75× of one on ``server_replay``, and parallel shard workers are
parked (ROADMAP).
"""

import time

from benchmarks.conftest import print_table

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.database import SpanStore
from repro.server.sharding import ShardedSpanStore

SPANS = 50_000
SHARD_COUNTS = (1, 2, 4, 8)
WINDOW = 0.5


def build_spans(count=SPANS):
    """Groups of four spans share a systrace id; every tenth group also
    chains to its neighbor via X-Request-ID, so some components cross
    routing keys (and shards)."""
    spans = []
    for index in range(count):
        group = index // 4
        xreq = None
        if group % 10 == 0 and group > 0 and index % 4 == 0:
            xreq = f"xr-{group - 1}"
        elif group % 10 == 9 and index % 4 == 3:
            xreq = f"xr-{group}"
        spans.append(Span(
            span_id=index, kind=SpanKind.SYSCALL,
            side=SpanSide.CLIENT if index % 2 else SpanSide.SERVER,
            start_time=index * 1e-4, end_time=index * 1e-4 + 1e-3,
            systrace_id=group, x_request_id=xreq,
            flow_key=("flow", index % 977), req_tcp_seq=index))
    return spans


def test_sharded_components_match_and_queries_stay_flat(benchmark):
    spans = build_spans()
    single = SpanStore()
    single.insert_many(spans)

    rows = []
    stores = {}
    links = {}
    for count in SHARD_COUNTS:
        store = stores[count] = ShardedSpanStore(count, window=WINDOW)
        store.insert_many(spans)
        store.flush()
        stats = store.shard_stats()
        links[count] = stats["boundary_links"]
        rows.append((count, stats["boundary_keys"],
                     stats["boundary_links"], f"{stats['imbalance']:.2f}"))
    print_table(
        "Sharded store: boundary pressure by shard count",
        ["shards", "boundary keys", "boundary links", "imbalance"],
        rows)
    assert len(stores[8]) == len(spans)
    # One shard has no boundary; more shards cut more keys.
    assert links[1] == 0
    assert 0 < links[2] <= links[8]

    # The 8-way sharded component equals the unsharded component
    # for a straddling sample.
    for start in range(0, 2000, 37):
        assert (stores[8].component_ids(start)
                == single.component_ids(start))

    # Query delay stays flat as the store grows (O(result) lookups).
    growth = ShardedSpanStore(4, window=WINDOW)
    delays = []
    step = len(spans) // 5
    for stop in range(step, len(spans) + 1, step):
        growth.insert_many(spans[stop - step:stop])
        growth.flush()
        starts = [span.span_id for span in spans[:stop:4][:50]]
        clock = time.perf_counter()
        for start in starts:
            growth.component_spans(start)
        delays.append((time.perf_counter() - clock) / len(starts))
    assert delays[-1] < 5 * delays[0]

    benchmark.pedantic(
        lambda: stores[4].component_spans(spans[0].span_id),
        rounds=5, iterations=100)
