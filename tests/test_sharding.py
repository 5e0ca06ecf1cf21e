"""Unit tests for the sharded span store: routing, tenancy, boundaries.

The equivalence of the shared-forest ``trace()`` with a single unsharded
store is property-tested in test_trace_index_properties.py; this file
pins the mechanics — deterministic routing, the seal/merge phase APIs,
tenant label threading, and the observability counters.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.database import SpanStore
from repro.server.index import association_keys
from repro.server.server import DeepFlowServer
from repro.server.sharding import MAX_SHARDS, ShardedSpanStore


def make_span(span_id, *, systrace=None, xreq=None, start=1.0, **extra):
    return Span(span_id=span_id, kind=SpanKind.SYSCALL,
                side=SpanSide.CLIENT, start_time=start,
                end_time=start + 0.01, systrace_id=systrace,
                x_request_id=xreq, **extra)


class TestRouting:
    def test_routing_is_deterministic(self):
        store = ShardedSpanStore(4)
        span = make_span(1, systrace=77)
        assert store._route(span, 0) == store._route(span, 0)

    def test_same_key_same_window_same_shard(self):
        store = ShardedSpanStore(8, window=60.0)
        spans = [make_span(i, systrace=42, start=float(i)) for i in range(20)]
        shards = {store._route(span, 0) for span in spans}
        assert len(shards) == 1

    def test_windows_split_one_key_across_shards(self):
        store = ShardedSpanStore(8, window=1.0)
        spans = [make_span(i, systrace=42, start=float(i) * 10)
                 for i in range(32)]
        shards = {store._route(span, 0) for span in spans}
        assert len(shards) > 1

    def test_keys_spread_across_shards(self):
        store = ShardedSpanStore(4)
        batches = store.route_batches(
            make_span(i, systrace=i) for i in range(400))
        sizes = [len(batch) for batch in batches]
        assert sum(sizes) == 400
        assert min(sizes) > 0
        # No shard should carry a wildly disproportionate share.
        assert max(sizes) < 3 * (400 // 4)

    def test_route_batches_is_pure(self):
        store = ShardedSpanStore(4)
        spans = [make_span(i, systrace=i) for i in range(10)]
        store.route_batches(spans)
        assert len(store) == 0

    def test_keyless_span_routes_by_span_id(self):
        store = ShardedSpanStore(4)
        spans = [make_span(i) for i in range(100)]
        store.insert_many(spans)
        assert len(store) == 100
        # Keyless spans are singleton components on whatever shard.
        assert store.component_ids(7) == {7}

    def test_tenant_salt_changes_spread(self):
        store = ShardedSpanStore(8)
        spans = [make_span(i, systrace=i) for i in range(200)]
        default = store.route_batches(spans)
        salted = store.route_batches(spans, tenant="acme")
        assert default != salted
        assert sorted(map(len, salted)) != [0] * 7 + [200]  # still spread

    def test_shard_count_bounds(self):
        with pytest.raises(ValueError):
            ShardedSpanStore(0)
        with pytest.raises(ValueError):
            ShardedSpanStore(MAX_SHARDS + 1)
        with pytest.raises(ValueError):
            ShardedSpanStore(2, window=0.0)


class TestIngest:
    def test_duplicate_id_on_same_shard_rejected(self):
        store = ShardedSpanStore(4)
        span = make_span(5, systrace=1)
        store.insert_many((span,))
        with pytest.raises(ValueError):
            store.insert_many((make_span(5, systrace=1),))

    def test_get_probes_shards(self):
        store = ShardedSpanStore(4)
        spans = [make_span(i, systrace=i) for i in range(50)]
        store.insert_many(spans)
        for span in spans:
            assert store.get(span.span_id) is span
        assert store.get(999) is None
        assert store.shard_of(999) is None
        owner = store.shard_of(3)
        assert store.shards[owner].get(3) is spans[3]

    def test_all_spans_unions_shards(self):
        store = ShardedSpanStore(3)
        spans = [make_span(i, systrace=i % 7) for i in range(60)]
        store.insert_many(spans)
        assert {s.span_id for s in store.all_spans()} == set(range(60))
        assert len(store) == 60


def run_hashseed_corpus():
    """A fixed corpus through ``ShardedSpanStore(4, window=0.5)`` batch
    by batch: int, str and tuple association keys on every axis, each
    key carried in four routing windows so it straddles shards, plus
    spans bridging two axes.  Returns every drained link event, in
    order, and the final ``shard_stats()``."""
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
        store = ShardedSpanStore(4, window=0.5)
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
        """Same spans, same order as one unsharded store — whatever the
        shard count, batch order, ties on start_time and filters."""
        single = SpanStore()
        sharded = ShardedSpanStore(shards, window=window)
        for batch, label in batches:
            sharded.insert_many(batch, tenant=label)
            single.insert_many(batch)
            if query_between:  # commit time runs batch by batch
                sharded.span_list(*bounds)
                single.span_list(*bounds)
        predicate = (lambda span: span.span_id % 2 == 1) if odd_only \
            else None

        def wanted(span):
            return ((tenant is None or span.tags.get("tenant") == tenant)
                    and (predicate is None or predicate(span)))

        got = sharded.span_list(*bounds, predicate=wanted)
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
        """Two *different* spans may reuse one id on two shards
        undetected; the merge must not fall through to comparing them.
        They come out lower shard first, as the k-way merge had it."""
        server = DeepFlowServer(shards=4)
        store = server.store
        twin_a = make_span(5, systrace=1, start=1.0)
        twin_b = next(
            candidate for candidate in (
                make_span(5, systrace=key, start=1.0, resource="other")
                for key in range(2, 50))
            if store._route(candidate, 0) != store._route(twin_a, 0))
        assert twin_a != twin_b
        others = [make_span(10 + i, systrace=100 + i, start=0.5 + 0.1 * i)
                  for i in range(12)]
        store.insert_many([twin_b, *others, twin_a])
        listed = server.span_list(0.0, float("inf"))
        assert [s.span_id for s in listed] == [
            s.span_id for s in sorted(
                [twin_a, twin_b, *others],
                key=lambda s: (s.start_time, s.span_id))]
        twins = [s for s in listed if s.span_id == 5]
        assert [store._route(s, 0) for s in twins] == sorted(
            store._route(s, 0) for s in twins)
        assert {id(s) for s in twins} == {id(twin_a), id(twin_b)}
        assert server.slowest_span() is listed[0]


class TestBoundaryPhases:
    def build(self):
        # Two spans per systrace id, windows forced apart so each pair
        # straddles shards with high likelihood.
        store = ShardedSpanStore(4, window=1.0)
        spans = []
        for trace_id in range(30):
            spans.append(make_span(2 * trace_id, systrace=trace_id,
                                   start=0.5))
            spans.append(make_span(2 * trace_id + 1, systrace=trace_id,
                                   start=100.5))
        store.insert_many(spans)
        return store, spans

    def test_seal_then_probe_then_merge(self):
        """Sealing commits the shards and queues their first-seen keys;
        only the merge probes the owner table and links."""
        store, spans = self.build()
        sealed = sum(store.seal_shard(i) for i in range(store.shard_count))
        assert sealed > 30  # every distinct (key, shard) logged once
        assert not any(shard.pending_key_count() for shard in store.shards)
        assert store.shard_stats()["boundary_links"] == 0
        store.merge_boundaries()
        # One link per key seen from a second shard; the logs are taken.
        assert store.shard_stats()["boundary_links"] == sealed - 30
        assert [store.seal_shard(i) for i in range(store.shard_count)] \
            == [0] * store.shard_count
        for trace_id in range(30):
            assert store.component_ids(2 * trace_id) == {
                2 * trace_id, 2 * trace_id + 1}
        # The query found nothing left to merge.
        assert store.shard_stats()["boundary_links"] == sealed - 30

    def test_link_order_independent_of_pythonhashseed(self):
        """The boundary layer finds the same links in the same order in
        every process, however that process salts str hashes."""
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
        assert stats["boundary_links"] > 50  # the corpus does straddle

    def test_flush_is_equivalent_and_idempotent(self):
        store, spans = self.build()
        store.flush()
        store.flush()
        stats = store.shard_stats()
        assert stats["boundary_keys"] > 0
        for trace_id in range(30):
            assert store.component_ids(2 * trace_id) == {
                2 * trace_id, 2 * trace_id + 1}

    def test_queries_trigger_phases_lazily(self):
        store, spans = self.build()
        # No explicit flush/seal: component_ids must do it all.
        assert store.component_ids(0) == {0, 1}
        assert store.shard_stats()["boundary_links"] > 0

    def test_carriers_commits_every_shard_before_answering(self):
        """The reference search's accessor must see spans nothing has
        queried yet: every shard commits its pending keys first."""
        store, spans = self.build()
        assert all(shard.pending_key_count() for shard in store.shards)
        keys = [key for span in spans[:2] for key in association_keys(span)]
        assert store.carriers(keys) == {0, 1}
        assert not any(shard.pending_key_count() for shard in store.shards)
        # Committing there must not hide the keys from the boundary seal.
        assert store.component_ids(0) == {0, 1}

    def test_shard_stats_shape(self):
        store, spans = self.build()
        store.flush()
        stats = store.shard_stats()
        assert stats["spans"] == 60
        assert stats["shards"] == 4
        assert sum(stats["shard_sizes"]) == 60
        assert stats["imbalance"] >= 1.0
        assert set(stats) == {"shards", "spans", "shard_sizes", "imbalance",
                              "boundary_keys", "boundary_links"}


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
        store = ShardedSpanStore(4)
        spans = [make_span(i, systrace=i) for i in range(20)]
        assert store.route_batches(spans, "") == store.route_batches(spans)
        store.insert_many(spans, "")
        assert all(s.tags["tenant"] == "" for s in spans)

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
        assert all(shard.graph is store.graph for shard in store.shards)
        store.insert_many([make_span(i, xreq="x", start=0.3 * i)
                           for i in range(12)])
        store.flush()
        assert len(store.graph) == 12
        assert store.component_ids(0) is store.graph.component(11)

    def test_default_server_runs_one_shard_and_no_owner_table(self):
        server = DeepFlowServer()
        assert isinstance(server.store, ShardedSpanStore)
        assert server.store.shard_count == 1
        server.ingest_spans([make_span(i, systrace=7, xreq="r", start=i)
                             for i in range(6)])
        assert {s.span_id for s in server.trace(0)} == set(range(6))
        stats = server.pipeline_stats()["shards"]
        assert stats["shards"] == 1
        assert stats["boundary_keys"] == 0
        assert server.store.seal_shard(0) == 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_rejected_batch_leaves_nothing_behind(self, shards):
        """A duplicate span id rejects the whole batch: nothing of it is
        stored, counted or pushed, and the batch re-sent without the
        duplicate goes through the push path normally."""
        server = DeepFlowServer(shards=shards, streaming=True)
        server.ingest_spans([make_span(i, systrace=i) for i in range(4)],
                            now=1.01)
        stream = server.streaming

        def seen():
            return (len(server.store), server.ingested_spans,
                    stream.stats()["spans_seen"])

        before = seen()
        batch = [make_span(100 + i, systrace=100 + i // 2)
                 for i in range(8)]
        batch[6] = make_span(1, systrace=1)  # the 7th repeats a stored id
        if shards > 1:
            # Spans routed ahead of the duplicate, on its shard and on a
            # lower one, are what the error path has to take back.
            dup = server.store._route(batch[6], 0)
            routes = [server.store._route(span, 0) for span in batch[:6]]
            assert dup in routes and min(routes) < dup
        with pytest.raises(ValueError):
            server.ingest_spans(batch, now=1.02)
        assert seen() == before
        assert all(server.store.get(100 + i) is None for i in range(8))
        del batch[6]
        server.ingest_spans(batch, now=1.02)
        stream.drain(5.0)
        assert stream.exporter.exported_spans == 4 + 7
        assert {s.span_id for s in server.trace(100)} == {100, 101}


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
        # Nothing can straddle.
        assert sharded.shard_stats()["boundary_links"] == 0
