"""Unit tests for the server's span store: time segments, retention,
tenancy and the commit phases.

The equivalence of a segmented store with one store holding the same
spans is property-tested in test_trace_index_properties.py; this file
pins the mechanics — segment assignment, the seal/merge phase APIs,
store-wide duplicate detection, whole-segment drops, tenant label
threading, and the observability counters.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, SpanKind, SpanSide
from repro.kernel.kernel import Kernel
from repro.server.database import SpanStore
from repro.server.index import association_keys
from repro.server.server import DeepFlowServer
from repro.server.sharding import ShardedSpanStore
from repro.sim.engine import Simulator


def make_span(span_id, *, systrace=None, xreq=None, start=1.0, **extra):
    return Span(span_id=span_id, kind=SpanKind.SYSCALL,
                side=SpanSide.CLIENT, start_time=start,
                end_time=start + 0.01, systrace_id=systrace,
                x_request_id=xreq, **extra)


def counters(server):
    return server.pipeline_stats()["metrics"]["counters"]


class TestRouting:
    """A span's segment is ``start_time // window``: nothing about its
    keys, its tenant or the shard count moves it."""

    def test_routing_is_deterministic(self):
        store = ShardedSpanStore(4, window=10.0)
        store.insert_many([make_span(i, systrace=77 + i,
                                     start=5.0 + 10.0 * (i % 3))
                           for i in range(9)])
        assert store.shard_stats()["segments"] == [0, 1, 2]
        assert [store.seal_shard(key) for key in range(4)] == [3, 3, 3, 0]

    def test_same_key_same_window_same_shard(self):
        store = ShardedSpanStore(8, window=60.0)
        store.insert_many([make_span(i, systrace=42 if i % 2 else i,
                                     start=float(i)) for i in range(20)])
        stats = store.shard_stats()
        assert stats["segments"] == [0]
        assert stats["segment_sizes"] == [20]

    def test_windows_split_one_key_across_shards(self):
        """One key over nine windows: nine segments, one trace, and no
        link spent stitching it back together."""
        store = ShardedSpanStore(8, window=1.0)
        store.insert_many([make_span(i, systrace=42, start=i + 0.5)
                           for i in range(9)])
        stats = store.shard_stats()
        assert stats["segments"] == list(range(9))
        assert stats["boundary_links"] == 0
        assert store.component_ids(0) == set(range(9))

    def test_keyless_span_routes_by_span_id(self):
        store = ShardedSpanStore(4)
        spans = [make_span(i) for i in range(100)]
        store.insert_many(spans)
        assert len(store) == 100
        # Keyless spans are singleton components.
        assert store.component_ids(7) == {7}

    def test_shard_count_bounds(self):
        with pytest.raises(ValueError):
            ShardedSpanStore(0)
        with pytest.raises(ValueError):
            ShardedSpanStore(2, window=0.0)
        # The retention depth has no upper bound.
        assert ShardedSpanStore(1000).shard_count == 1000


class TestIngest:
    def test_duplicate_id_on_same_shard_rejected(self):
        """The id check is store-wide: a repeat in another segment is
        skipped and counted, never an exception."""
        metrics = PipelineMetrics()
        store = ShardedSpanStore(4, metrics=metrics)
        span = make_span(5, systrace=1)
        assert store.insert_many((span,)) == (span,)
        twin = make_span(5, systrace=1, start=200.0)
        assert store.insert_many((twin,)) == []
        assert store.get(5) is span
        assert len(store) == 1
        assert metrics.get("store.duplicate_spans").value == 1
        assert store.shard_stats()["segments"] == [0]

    def test_get_probes_shards(self):
        """``get`` is one id-map lookup, whichever segment holds the
        span."""
        store = ShardedSpanStore(4, window=1.0)
        spans = [make_span(i, systrace=i, start=0.5 * i) for i in range(8)]
        store.insert_many(spans)
        for span in spans:
            assert store.get(span.span_id) is span
        assert store.get(999) is None
        assert store.shard_stats()["segment_sizes"] == [2, 2, 2, 2]

    def test_all_spans_unions_shards(self):
        store = ShardedSpanStore(3)
        spans = [make_span(i, systrace=i % 7) for i in range(60)]
        store.insert_many(spans)
        assert {s.span_id for s in store.all_spans()} == set(range(60))
        assert len(store) == 60


def run_hashseed_corpus():
    """A fixed corpus through ``ShardedSpanStore(4, window=0.5)`` batch
    by batch: int, str and tuple association keys on every axis, each
    key carried in four time windows, plus spans bridging two axes.
    Returns every drained link event, in order, and the final
    ``shard_stats()``."""
    spans = []
    for window in range(4):
        for group in range(8):
            flow = (("10.0.1.2", 40000 + group), ("10.0.5.2", 9100), "tcp")
            axes = [
                dict(systrace_id=5497558140662 + group),
                dict(pseudo_thread_key=("node-5", "t", 100, 1005, group)),
                dict(x_request_id=f"req-\u00e9-{group}"),
                dict(flow_key=flow, req_tcp_seq=2813, resp_tcp_seq=977),
                dict(otel_trace_id=f"4bf92f3577b34da6a3ce929d0e0e47{group:02}"),
                dict(protocol="amqp", resource="orders", message_id=group),
                # Bridges: one span on two axes joins their components.
                dict(systrace_id=5497558140662 + group,
                     x_request_id=f"req-\u00e9-{group}"),
            ]
            start = 0.1 + 0.6 * window
            for keys in axes:
                spans.append(Span(span_id=len(spans), kind=SpanKind.SYSCALL,
                                  side=SpanSide.CLIENT, start_time=start,
                                  end_time=start + 0.01, **keys))
    store = ShardedSpanStore(4, window=0.5)
    store.arm_component_events()
    events = []
    for cut in range(0, len(spans), 16):
        store.insert_many(spans[cut:cut + 16])
        events += store.take_component_events()
    return events, store.shard_stats()


class TestComponentReadOut:
    @pytest.mark.parametrize("flushed", [False, True])
    def test_unknown_id_raises_before_and_after_a_flush(self, flushed):
        store = ShardedSpanStore(4, window=1.0)
        store.insert_many([make_span(i, xreq="shared", start=0.3 * i)
                           for i in range(12)])
        if flushed:
            store.flush()
        for query in (store.component_spans, store.component_ids):
            with pytest.raises(KeyError):
                query(999)
        assert ({s.span_id for s in store.component_spans(3)}
                == store.component_ids(3) == set(range(12)))


@st.composite
def labeled_batches(draw):
    """Spans on a coarse time grid (equal start times are the rule),
    cut into batches that arrive in any order, each under a tenant
    label or none."""
    count = draw(st.integers(min_value=1, max_value=40))
    ids = draw(st.permutations(range(count)))
    spans = [make_span(span_id,
                       systrace=draw(st.integers(0, 6)),
                       start=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5,
                                                   2.0, 61.0])))
             for span_id in ids]
    batches = []
    while spans:
        size = draw(st.integers(min_value=1, max_value=len(spans)))
        batches.append((spans[:size],
                        draw(st.sampled_from([None, "acme", "globex"]))))
        spans = spans[size:]
    return batches


class TestSpanListMerge:
    @settings(max_examples=120, deadline=None)
    @given(batches=labeled_batches(),
           shards=st.integers(min_value=1, max_value=8),
           window=st.sampled_from([0.5, 60.0]),
           bounds=st.sampled_from([(0.0, float("inf")), (0.5, 2.0),
                                   (1.0, 1.0), (2.0, 100.0)]),
           tenant=st.sampled_from([None, "acme"]),
           odd_only=st.booleans(),
           query_between=st.booleans())
    def test_sharded_span_list_is_the_single_store_list(
            self, batches, shards, window, bounds, tenant, odd_only,
            query_between):
        """Same spans, same order as one store holding what retention
        kept — whatever the depth, batch order, ties on start_time and
        filters."""
        segmented = ShardedSpanStore(shards, window=window)
        for batch, label in batches:
            segmented.insert_many(batch, tenant=label)
            if query_between:  # commit time runs batch by batch
                segmented.span_list(*bounds)
        offered = [span for batch, _label in batches for span in batch]
        newest = max(span.start_time // window for span in offered)
        kept = [span for span in offered
                if span.start_time // window >= newest - shards]
        assert sorted(s.span_id for s in segmented.all_spans()) == sorted(
            s.span_id for s in kept)
        single = SpanStore()
        single.insert_many(kept)
        predicate = (lambda span: span.span_id % 2 == 1) if odd_only \
            else None

        def wanted(span):
            return ((tenant is None or span.tags.get("tenant") == tenant)
                    and (predicate is None or predicate(span)))

        got = segmented.span_list(*bounds, predicate=wanted)
        expected = single.span_list(*bounds, predicate=wanted)
        assert [id(span) for span in got] == [id(span)
                                              for span in expected]
        assert expected == sorted(
            expected, key=lambda span: (span.start_time, span.span_id))

    def test_slowest_span_breaks_duration_ties_alike(self):
        """``max`` keeps the first of equal durations, so the tie goes
        to the span ``span_list`` puts first — on any shard count."""
        def spans():
            # Binary fractions: half the spans last exactly 0.5 s.
            return [Span(span_id=i, kind=SpanKind.SYSCALL,
                         side=SpanSide.CLIENT, systrace_id=i,
                         start_time=(i * 7) % 5 * 0.25,
                         end_time=(i * 7) % 5 * 0.25 + 0.25 * (1 + i % 2))
                    for i in range(40)]

        picks = []
        for shards in (1, 4):
            server = DeepFlowServer(shards=shards)
            server.ingest_spans(spans())
            picks.append(server.slowest_span().span_id)
        assert picks == [5, 5]  # earliest start (0.0), then smallest id

    def test_one_id_on_two_shards_neither_raises_nor_reorders(self):
        """Two *different* spans offered under one id, in two segments:
        the store-wide check keeps the first, counts the second, and the
        list keeps time order."""
        server = DeepFlowServer(shards=4)
        store = server.store
        twin_a = make_span(5, systrace=1, start=1.0)
        twin_b = make_span(5, systrace=2, start=61.0, resource="other")
        others = [make_span(10 + i, systrace=100 + i, start=0.5 + 0.1 * i)
                  for i in range(12)]
        store.insert_many([twin_b, *others, twin_a])
        listed = server.span_list(0.0, float("inf"))
        assert [s.span_id for s in listed] == [
            s.span_id for s in sorted(
                [twin_b, *others], key=lambda s: (s.start_time, s.span_id))]
        assert [id(s) for s in listed if s.span_id == 5] == [id(twin_b)]
        assert counters(server)["store.duplicate_spans"] == 1
        assert server.slowest_span() is max(listed,
                                            key=lambda s: s.duration)


class TestBoundaryPhases:
    """The two commit phases the benchmark tracer times on their own:
    ``seal_shard`` (a segment's time run) and ``merge_boundaries`` (the
    posting map into the forest)."""

    def build(self):
        # Two spans per systrace id, three windows apart.
        store = ShardedSpanStore(4, window=1.0)
        spans = []
        for trace_id in range(30):
            spans.append(make_span(2 * trace_id, systrace=trace_id,
                                   start=0.5))
            spans.append(make_span(2 * trace_id + 1, systrace=trace_id,
                                   start=3.5))
        store.insert_many(spans)
        return store, spans

    def test_seal_then_probe_then_merge(self):
        """Sealing sorts the segments' time runs and leaves the keys
        pending; only the merge commits them into the forest."""
        store, spans = self.build()
        assert [store.seal_shard(key) for key in range(5)] \
            == [30, 0, 0, 30, 0]
        assert store.pending_key_count() == 60
        store.merge_boundaries()
        assert store.pending_key_count() == 0
        for trace_id in range(30):
            assert store.component_ids(2 * trace_id) == {
                2 * trace_id, 2 * trace_id + 1}
        assert store.shard_stats()["boundary_links"] == 0

    def test_link_order_independent_of_pythonhashseed(self):
        """The store finds the same links in the same order in every
        process, however that process salts str hashes."""
        script = ("from tests.test_sharding import run_hashseed_corpus\n"
                  "print(run_hashseed_corpus())")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [os.path.join(root, "src"), root]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=60, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        events, stats = run_hashseed_corpus()
        assert outputs[0].strip() == repr((events, stats))
        assert len(events) > 50  # the corpus does link
        assert stats["segments"] == [0, 1, 2, 3]

    def test_flush_is_equivalent_and_idempotent(self):
        store, spans = self.build()
        store.flush()
        store.flush()
        assert store.pending_key_count() == 0
        assert store.shard_stats()["spans"] == 60
        for trace_id in range(30):
            assert store.component_ids(2 * trace_id) == {
                2 * trace_id, 2 * trace_id + 1}

    def test_queries_trigger_phases_lazily(self):
        store, spans = self.build()
        # No explicit flush/seal: component_ids must do it all.
        assert store.component_ids(0) == {0, 1}
        assert store.pending_key_count() == 0

    def test_carriers_commits_every_shard_before_answering(self):
        """The reference search's accessor must see spans nothing has
        queried yet: pending keys are committed first."""
        store, spans = self.build()
        assert store.pending_key_count() == 60
        keys = [key for span in spans[:2] for key in association_keys(span)]
        assert store.carriers(keys) == {0, 1}
        assert store.pending_key_count() == 0
        assert store.component_ids(0) == {0, 1}

    def test_shard_stats_shape(self):
        store, spans = self.build()
        store.flush()
        stats = store.shard_stats()
        assert stats["spans"] == 60
        assert stats["shards"] == 4
        assert stats["segments"] == [0, 3]
        assert stats["segment_sizes"] == [30, 30]
        assert stats["imbalance"] == 1.0
        assert set(stats) == {"shards", "window", "segments",
                              "segment_sizes", "spans", "imbalance",
                              "boundary_links", "segments_dropped",
                              "spans_dropped"}


class TestTenancy:
    def test_tenant_label_stamped_and_filterable(self):
        """The store stamps the label; the server's label filter is
        the one tenant filter of span lists."""
        for shards in (1, 4):
            server = DeepFlowServer(shards=shards)
            acme = [make_span(i, systrace=i, start=1.0) for i in range(10)]
            globex = [make_span(100 + i, systrace=50 + i, start=2.0)
                      for i in range(10)]
            server.ingest_spans(acme, tenant="acme")
            server.ingest_spans(globex, tenant="globex")
            assert all(s.tags["tenant"] == "acme" for s in acme)
            listed = server.span_list(0.0, 10.0, tenant="acme")
            assert [s.span_id for s in listed] == list(range(10))
            # Time order is preserved inside the filter.
            both = server.span_list(0.0, 10.0)
            assert [s.span_id for s in both] == sorted(
                range(10)) + sorted(range(100, 110))

    def test_empty_tenant_is_stamped_but_does_not_salt(self):
        """A label, even the empty one, is stamped and moves nothing."""
        plain = ShardedSpanStore(4, window=1.0)
        labeled = ShardedSpanStore(4, window=1.0)
        plain.insert_many([make_span(i, systrace=i, start=0.4 * i)
                           for i in range(20)])
        spans = [make_span(i, systrace=i, start=0.4 * i) for i in range(20)]
        labeled.insert_many(spans, "")
        assert all(s.tags["tenant"] == "" for s in spans)
        assert labeled.shard_stats() == plain.shard_stats()

    def test_search_tenant_filter(self):
        store = ShardedSpanStore(2)
        a = make_span(1, systrace=9)
        b = make_span(2, systrace=9)
        store.insert_many([a], tenant="acme")
        store.insert_many([b], tenant="globex")
        found = store.carriers(association_keys(a))
        assert found == {1, 2}
        assert {span_id for span_id in found
                if store.get(span_id).tags.get("tenant") == "acme"} == {1}

    def test_labels_do_not_partition_traces(self):
        """Labels are filters, not walls: two tenants' spans sharing an
        association key still form one component (the multi-cluster
        deployment shares the backbone)."""
        store = ShardedSpanStore(4)
        a = make_span(1, xreq="shared")
        b = make_span(2, xreq="shared")
        store.insert_many([a], tenant="acme")
        store.insert_many([b], tenant="globex")
        assert store.component_ids(1) == {1, 2}


class TestOneStore:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_every_shard_links_into_the_one_forest(self, shards):
        store = ShardedSpanStore(shards, window=0.5)
        store.insert_many([make_span(i, xreq="x", start=0.05 * i)
                           for i in range(12)])
        store.flush()
        assert store.shard_stats()["segments"] == [0, 1]
        assert len(store.graph) == 12
        assert store.component_ids(0) is store.graph.component(11)

    def test_default_server_runs_one_shard_and_no_owner_table(self):
        """The default server: 60 s segments, the newest and one more
        kept."""
        server = DeepFlowServer()
        assert isinstance(server.store, ShardedSpanStore)
        assert server.store.shard_count == 1
        assert server.store.window == 60.0
        server.ingest_spans([make_span(i, systrace=7, xreq="r", start=i)
                             for i in range(6)])
        assert {s.span_id for s in server.trace(0)} == set(range(6))
        stats = server.pipeline_stats()["shards"]
        assert stats["shards"] == 1
        assert stats["segments"] == [0]
        assert stats["boundary_links"] == 0
        assert server.store.seal_shard(0) == 6

    @pytest.mark.parametrize("shards", [1, 4])
    def test_rejected_batch_leaves_nothing_behind(self, shards):
        """A batch whose every span repeats a stored id is stored,
        counted as ingested and pushed not at all — only counted as
        duplicates; in a mixed batch, the rest goes through normally."""
        server = DeepFlowServer(shards=shards, streaming=True)
        server.ingest_spans([make_span(i, systrace=i) for i in range(4)],
                            now=1.01)
        stream = server.streaming

        def seen():
            return (len(server.store), server.ingested_spans,
                    stream.stats()["spans_seen"])

        before = seen()
        server.ingest_spans([make_span(i, systrace=i) for i in range(4)],
                            now=1.015)
        assert seen() == before
        assert counters(server)["store.duplicate_spans"] == 4
        batch = [make_span(100 + i, systrace=100 + i // 2)
                 for i in range(8)]
        batch[6] = make_span(1, systrace=1)  # the 7th repeats a stored id
        server.ingest_spans(batch, now=1.02)
        assert seen() == (before[0] + 7, before[1] + 7, before[2] + 7)
        assert counters(server)["store.duplicate_spans"] == 5
        stream.drain(5.0)
        assert stream.exporter.exported_spans == 4 + 7
        assert {s.span_id for s in server.trace(100)} == {100, 101}


class TestRetention:
    def test_segments_drop_whole_and_counted(self):
        """Depth 2: the newest segment and the two before it stay; an
        older one goes whole — rows, postings, forest members and time
        run — and the counters say so."""
        metrics = PipelineMetrics()
        store = ShardedSpanStore(2, window=1.0, metrics=metrics)
        # Span 10w+i carries systrace i in every window w: four traces,
        # each with one span per window.
        for window in range(6):
            store.insert_many([
                make_span(10 * window + i, systrace=i,
                          start=window + 0.1 * i)
                for i in range(4)])
            live = list(range(max(0, window - 2), window + 1))
            assert store.shard_stats()["segments"] == live
            assert len(store) <= 3 * 4
        assert metrics.get("store.segments_dropped").value == 3
        assert metrics.get("store.spans_dropped").value == 12
        assert store.get(0) is None and store.get(29) is None
        survivors = {10 * w + i for w in (3, 4, 5) for i in range(4)}
        assert {s.span_id for s in store.all_spans()} == survivors
        assert store.carriers([("sys", 0)]) == {30, 40, 50}
        assert store.component_ids(50) == {30, 40, 50}
        assert [s.span_id for s in store.span_list(0.0, 3.25)] == [30, 31,
                                                                   32]

    def test_late_span_is_skipped_and_counted(self):
        """A span older than the horizon on arrival never lands."""
        server = DeepFlowServer(shards=1, streaming=True)
        server.ingest_spans([make_span(1, systrace=1, start=130.0)],
                            now=130.1)
        late = make_span(2, systrace=1, start=10.0)
        kept = make_span(3, systrace=1, start=70.0)
        server.ingest_spans([late, kept], now=130.2)
        assert server.store.get(2) is None
        assert server.ingested_spans == 2
        assert server.streaming.stats()["spans_seen"] == 2
        assert counters(server)["store.late_spans"] == 1
        assert {s.span_id for s in server.trace(1)} == {1, 3}

    def test_drops_at_most_once_per_window(self):
        """Spans inside the newest window never trigger a drop: the
        store looks for segments to drop only when a window opens past
        the horizon."""
        store = ShardedSpanStore(1, window=1.0)
        floors = []
        expire = store._expire

        def spy(floor, batch):
            floors.append(floor)
            return expire(floor, batch)

        store._expire = spy
        store.insert_many([make_span(0, systrace=1, start=0.5)])
        store.insert_many([make_span(1, systrace=1, start=1.5)])
        for i in range(2, 10):
            store.insert_many([make_span(i, systrace=1, start=1.5 + i / 100)])
        assert floors == []
        store.insert_many([make_span(10, systrace=1, start=2.5),
                           make_span(11, systrace=2, start=2.6)])
        for i in range(12, 20):
            store.insert_many([make_span(i, systrace=2, start=2.5 + i / 100)])
        assert floors == [1.0]
        assert store.shard_stats()["segments_dropped"] == 1
        assert store.component_ids(10) == set(range(1, 11))
        assert store.component_ids(11) == set(range(11, 20))

    def test_future_span_expires_nothing(self):
        """A span stamped far past the ingest clock is stored but moves
        no horizon: what came before stays, what comes after lands."""
        server = DeepFlowServer(shards=1)
        server.ingest_spans([make_span(i, systrace=1, start=1.0 + i)
                             for i in range(5)], now=6.0)
        bogus = Span(span_id=99, kind=SpanKind.APP, side=SpanSide.APP,
                     start_time=1e6, end_time=1e6 + 1.0,
                     otel_trace_id="ab" * 16)
        server.ingest_otel_span(bogus, now=7.0)
        server.ingest_spans([make_span(5, systrace=1, start=8.0)], now=9.0)
        assert len(server.store) == 7
        assert {s.span_id for s in server.trace(0)} == set(range(6))
        stats = counters(server)
        assert stats["store.late_spans"] == 0
        assert stats["store.segments_dropped"] == 0
        assert server.ingested_spans == 7

    def test_batch_across_the_horizon_reports_only_what_it_kept(self):
        """One batch over four windows at depth 1 drops its own first
        two spans: only the two kept are returned, counted as ingested
        and pushed, and they still form one trace."""
        store = ShardedSpanStore(1, window=1.0)
        spans = [make_span(i, systrace=1, start=i + 0.5) for i in range(4)]
        assert store.insert_many(spans) == spans[2:]
        assert store.shard_stats()["spans_dropped"] == 2
        assert store.component_ids(3) == {2, 3}
        server = DeepFlowServer(shards=1, streaming=True)
        server.ingest_spans([make_span(10 + i, systrace=2, start=60.0 * i)
                             for i in range(4)], now=200.0)
        assert server.ingested_spans == len(server.store) == 2
        assert server.streaming.stats()["spans_seen"] == 2
        assert {s.span_id for s in server.trace(13)} == {12, 13}

    def test_agent_reshipping_a_batch_raises_nothing(self):
        """At-least-once delivery: an agent that ships the same batch
        twice stores and exports each span once, and the duplicate
        counter reads the batch size."""
        sim = Simulator()
        server = DeepFlowServer(streaming=True)
        agent = server.new_agent(Kernel(sim, "n1"))
        batch = [make_span(i, systrace=i // 3, start=0.1 * i)
                 for i in range(9)]
        for _ in range(2):
            agent.pending_spans = list(batch)
            assert agent.ship() == len(batch)
        server.streaming.drain(5.0)
        assert len(server.store) == len(batch)
        assert server.ingested_spans == len(batch)
        assert server.streaming.exporter.exported_spans == len(batch)
        assert counters(server)["store.duplicate_spans"] == len(batch)


class TestSingleShardDegenerate:
    def test_one_shard_matches_plain_store(self):
        spans = [make_span(i, systrace=i % 5) for i in range(40)]
        single = SpanStore()
        single.insert_many(spans)
        sharded = ShardedSpanStore(1)
        sharded.insert_many(spans)
        for span in spans:
            assert (sharded.component_ids(span.span_id)
                    == single.component_ids(span.span_id))
        assert sharded.shard_stats()["boundary_links"] == 0
