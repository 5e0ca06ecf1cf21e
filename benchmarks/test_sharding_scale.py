"""Segmented store at scale: same components as one store, flat query
delay, bounded size.

The Fig-15 story at fleet scale, in three checkable halves.  A store cut
into time segments answers every trace exactly as one store does,
however many segments the trace straddles (one posting map and one
forest: no key is ever split).  The trace query stays flat as the store
grows across segments — component lookup is O(result), not O(store);
that check is a same-run ratio of one code path at several store sizes.
And retention bounds the store: with depth ``shard_count`` it never
holds more than ``shard_count + 1`` windows of spans.
"""

import time
from collections import Counter

from benchmarks.conftest import print_table

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.database import SpanStore
from repro.server.sharding import ShardedSpanStore

SPANS = 50_000
SPACING = 1e-4
WINDOW = 0.5
#: Deep enough to keep all ten windows of the corpus.
KEEP_ALL = 16
DEPTHS = (1, 2, 4)
BATCH = 1_000


def build_spans(count=SPANS):
    """Groups of four spans share a systrace id; every tenth group also
    chains to its neighbor via X-Request-ID, so some components cross
    time windows (and segments)."""
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
            start_time=index * SPACING, end_time=index * SPACING + 1e-3,
            systrace_id=group, x_request_id=xreq,
            flow_key=("flow", index % 977), req_tcp_seq=index))
    return spans


def test_segmented_components_match_and_queries_stay_flat(benchmark):
    spans = build_spans()
    single = SpanStore()
    single.insert_many(spans)

    # Segments ≡ one store, on a sample straddling window boundaries.
    segmented = ShardedSpanStore(KEEP_ALL, window=WINDOW)
    segmented.insert_many(spans)
    segmented.flush()
    stats = segmented.shard_stats()
    assert len(stats["segments"]) == 10
    assert stats["boundary_links"] == 0
    boundary = round(WINDOW / SPACING)
    for start in range(boundary - 1000, boundary + 1000, 37):
        assert (segmented.component_ids(start)
                == single.component_ids(start))

    # Query delay stays flat as the store grows (O(result) lookups).
    growth = ShardedSpanStore(KEEP_ALL, window=WINDOW)
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

    # Retention: at most depth + 1 windows of spans, whatever the depth.
    per_window = max(Counter(span.start_time // WINDOW
                             for span in spans).values())
    rows = []
    for depth in DEPTHS:
        store = ShardedSpanStore(depth, window=WINDOW)
        peak = 0
        for cut in range(0, len(spans), BATCH):
            store.insert_many(spans[cut:cut + BATCH])
            peak = max(peak, len(store))
        stats = store.shard_stats()
        rows.append((depth, len(stats["segments"]), peak,
                     stats["spans_dropped"]))
        assert peak <= (depth + 1) * per_window
        assert len(stats["segments"]) == depth + 1
        assert stats["spans_dropped"] == len(spans) - len(store)
    print_table(
        "Segmented store: retention by depth (window 0.5 s, "
        f"{per_window} spans per window)",
        ["depth", "live segments", "peak spans", "spans dropped"], rows)

    benchmark.pedantic(
        lambda: segmented.component_spans(spans[0].span_id),
        rounds=5, iterations=100)
