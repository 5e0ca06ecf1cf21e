"""Unit tests for the server: store, assembler, tags, encoders, metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import IdAllocator
from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, SpanKind, SpanSide, Trace
from repro.server.assembler import TraceAssembler, assign_parents
from repro.server.database import SpanStore
from repro.server.encoding import (
    DirectEncoder,
    LowCardinalityEncoder,
    SmartEncoder,
)
from repro.server.index import association_keys
from repro.server.metricsdb import MetricsDatabase
from repro.server.reference import collect_iterative
from repro.server.server import DeepFlowServer
from repro.server.tags import TagRegistry

_ids = IdAllocator(9)


def span(kind=SpanKind.SYSCALL, side=SpanSide.CLIENT, start=0.0, end=1.0,
         **kwargs):
    return Span(span_id=_ids.next_id(), kind=kind, side=side,
                start_time=start, end_time=end, **kwargs)


class TestIds:
    def test_unique_and_agent_recoverable(self):
        allocator = IdAllocator(5)
        ids = [allocator.next_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert all(IdAllocator.agent_of(i) == 5 for i in ids)

    def test_distinct_agents_never_collide(self):
        a = IdAllocator(1)
        b = IdAllocator(2)
        assert not ({a.next_id() for _ in range(50)}
                    & {b.next_id() for _ in range(50)})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            IdAllocator(-1)


class TestSpanStore:
    def test_insert_and_get(self):
        store = SpanStore()
        s = span()
        store.insert_many((s,))
        assert store.get(s.span_id) is s
        assert len(store) == 1

    def test_duplicate_id_rejected(self):
        """A repeated id is skipped and counted, never stored twice."""
        store = SpanStore()
        s = span()
        store.insert_many((s,))
        assert store.insert_many((s,)) == []
        assert len(store) == 1

    def test_duplicates_are_skipped_and_the_rest_stored(self):
        metrics = PipelineMetrics()
        store = SpanStore(metrics)
        kept = [span(systrace_id=5), span(systrace_id=5)]
        store.insert_many(kept)
        kept_ids = {s.span_id for s in kept}
        assert store.component_ids(kept[0].span_id) == kept_ids
        fresh = span(systrace_id=5)
        other = span()
        assert store.insert_many([fresh, kept[1], other, fresh]) == [
            fresh, other]
        assert metrics.get("store.duplicate_spans").value == 2
        assert len(store) == 4
        assert store.component_ids(fresh.span_id) == kept_ids | {
            fresh.span_id}
        assert len(store.span_list(0.0, 10.0)) == 4

    def test_search_by_systrace(self):
        store = SpanStore()
        a = span(systrace_id=77)
        b = span(systrace_id=77)
        c = span(systrace_id=78)
        store.insert_many([a, b, c])
        found = store.carriers(association_keys(a))
        assert found == {a.span_id, b.span_id}

    def test_search_by_flow_seq_distinguishes_direction(self):
        store = SpanStore()
        a = span(flow_key=("f",), req_tcp_seq=1)
        b = span(flow_key=("f",), resp_tcp_seq=1)
        store.insert_many([a, b])
        # Same numeric seq but a's is a request seq, b's a response seq.
        assert store.carriers(association_keys(a)) == {a.span_id}

    def test_search_by_x_request_id(self):
        store = SpanStore()
        a = span(x_request_id="r-1")
        b = span(x_request_id="r-1")
        store.insert_many([a, b])
        assert store.carriers(association_keys(a)) == {a.span_id,
                                                       b.span_id}

    def test_span_list_time_range(self):
        store = SpanStore()
        spans = [span(start=float(i), end=float(i) + 0.5)
                 for i in range(10)]
        store.insert_many(spans)
        result = store.span_list(2.0, 5.0)
        assert [s.start_time for s in result] == [2.0, 3.0, 4.0]

    def test_span_list_predicate(self):
        store = SpanStore()
        a = span(start=1.0, side=SpanSide.SERVER)
        b = span(start=2.0, side=SpanSide.CLIENT)
        store.insert_many([a, b])
        result = store.span_list(0.0, 10.0,
                                 lambda s: s.side is SpanSide.SERVER)
        assert result == [a]


class TestAssembler:
    def _linked_pair(self):
        client = span(side=SpanSide.CLIENT, start=0.0, end=1.0,
                      flow_key=("f",), req_tcp_seq=10, resp_tcp_seq=20,
                      systrace_id=1)
        server = span(side=SpanSide.SERVER, start=0.1, end=0.9,
                      flow_key=("f",), req_tcp_seq=10, resp_tcp_seq=20,
                      systrace_id=2)
        return client, server

    def test_collect_expands_through_seq(self):
        store = SpanStore()
        client, server = self._linked_pair()
        store.insert_many([client, server])
        expected = {client.span_id, server.span_id}
        trace = TraceAssembler(store).assemble(client.span_id)
        assert {s.span_id for s in trace} == expected
        found = collect_iterative(store, client.span_id)
        assert {s.span_id for s in found.spans} == expected

    def test_collect_terminates_on_fixpoint(self):
        store = SpanStore()
        client, server = self._linked_pair()
        store.insert_many([client, server])
        found = collect_iterative(store, client.span_id)
        assert found.rounds <= 3
        # Frontier-only rounds: each distinct key is asked about once.
        assert found.lookups == len({key for s in (client, server)
                                     for key in association_keys(s)})

    def test_iteration_limit_respected(self):
        store = SpanStore()
        # A chain of 40 spans linked pairwise by systrace (a->b) and flow
        # (b->c): each iteration can only extend the frontier.
        chain = []
        for i in range(40):
            chain.append(span(systrace_id=i // 2 + 1000,
                              flow_key=("f",),
                              req_tcp_seq=(i + 1) // 2 * 1000 + 7))
        store.insert_many(chain)
        found = collect_iterative(store, chain[0].span_id, iterations=3)
        assert found.rounds == 3
        assert len(found.spans) < len(chain)
        # The union-find has no iteration cap: the component is already
        # materialized, so the full chain comes back.
        assert len(store.component_spans(chain[0].span_id)) == len(chain)

    def test_server_parented_under_client(self):
        client, server = self._linked_pair()
        assign_parents([client, server])
        assert server.parent_id == client.span_id
        assert client.parent_id is None

    def test_mismatched_resp_seq_not_chained(self):
        client, server = self._linked_pair()
        server.resp_tcp_seq = 999
        assign_parents([client, server])
        assert server.parent_id is None

    def test_network_spans_chain_in_path_order(self):
        client, server = self._linked_pair()
        nets = [span(kind=SpanKind.NETWORK, side=SpanSide.NETWORK,
                     start=0.01 * (i + 1), end=0.9 - 0.01 * i,
                     flow_key=("f",), req_tcp_seq=10, resp_tcp_seq=20,
                     path_index=i)
                for i in range(3)]
        assign_parents([server, nets[2], nets[0], client, nets[1]])
        assert nets[0].parent_id == client.span_id
        assert nets[1].parent_id == nets[0].span_id
        assert nets[2].parent_id == nets[1].span_id
        assert server.parent_id == nets[2].span_id

    def test_client_under_server_by_systrace(self):
        server = span(side=SpanSide.SERVER, start=0.0, end=1.0,
                      systrace_id=5)
        client = span(side=SpanSide.CLIENT, start=0.2, end=0.8,
                      systrace_id=5, flow_key=("g",), req_tcp_seq=1)
        assign_parents([server, client])
        assert client.parent_id == server.span_id

    def test_client_under_server_by_x_request_id(self):
        """Cross-thread proxy association (different systrace ids)."""
        server = span(side=SpanSide.SERVER, start=0.0, end=1.0,
                      systrace_id=5, x_request_id="xr-9",
                      host="n1", pid=4)
        client = span(side=SpanSide.CLIENT, start=0.2, end=0.8,
                      systrace_id=6, x_request_id="xr-9",
                      host="n1", pid=4)
        assign_parents([server, client])
        assert client.parent_id == server.span_id

    def test_app_span_under_server_span(self):
        server = span(side=SpanSide.SERVER, start=0.0, end=1.0,
                      host="n1", pid=4)
        app = span(kind=SpanKind.APP, side=SpanSide.APP, start=0.1,
                   end=0.9, host="n1", pid=4, otel_span_id="a1",
                   otel_trace_id="t1")
        assign_parents([server, app])
        assert app.parent_id == server.span_id

    def test_app_explicit_parent_wins(self):
        parent_app = span(kind=SpanKind.APP, side=SpanSide.APP, start=0.0,
                          end=1.0, otel_span_id="p1", otel_trace_id="t1")
        child_app = span(kind=SpanKind.APP, side=SpanSide.APP, start=0.1,
                         end=0.9, otel_span_id="c1",
                         otel_parent_span_id="p1", otel_trace_id="t1")
        assign_parents([parent_app, child_app])
        assert child_app.parent_id == parent_app.span_id

    def test_client_span_under_enclosing_app_span(self):
        app = span(kind=SpanKind.APP, side=SpanSide.APP, start=0.0,
                   end=1.0, host="n1", pid=4, otel_span_id="a1")
        client = span(side=SpanSide.CLIENT, start=0.2, end=0.8,
                      host="n1", pid=4)
        assign_parents([app, client])
        assert client.parent_id == app.span_id

    def test_unknown_start_span_raises(self):
        store = SpanStore()
        with pytest.raises(KeyError):
            TraceAssembler(store).assemble(123456)
        with pytest.raises(KeyError):
            collect_iterative(store, 123456)


class TestTrace:
    def test_roots_children_depth(self):
        a = span(start=0.0, end=3.0)
        b = span(start=0.5, end=2.0)
        c = span(start=1.0, end=1.5)
        b.parent_id = a.span_id
        c.parent_id = b.span_id
        trace = Trace([c, a, b])
        assert trace.roots() == [a]
        assert trace.children(a) == [b]
        assert trace.depth(c) == 2
        assert trace.duration == 3.0

    def test_to_text_renders_tree(self):
        a = span(start=0.0, end=3.0, operation="GET", resource="/")
        b = span(start=0.5, end=2.0, operation="GET", resource="/api")
        b.parent_id = a.span_id
        text = Trace([a, b]).to_text()
        assert "GET /" in text
        assert text.count("\n") == 1
        assert text.splitlines()[1].startswith("  ")

    def test_missing_parent_treated_as_root(self):
        orphan = span()
        orphan.parent_id = 999999999
        trace = Trace([orphan])
        assert trace.roots() == [orphan]

    def test_children_come_in_canonical_order_as_fresh_lists(self):
        root = span(start=0.0, end=9.0)
        late = span(start=2.0, end=3.0)
        early_b = span(start=1.0, end=2.0)
        early_a = span(start=1.0, end=2.0)
        early_a.span_id, early_b.span_id = sorted(
            (early_a.span_id, early_b.span_id))
        for child in (late, early_b, early_a):
            child.parent_id = root.span_id
        trace = Trace([late, early_b, root, early_a])
        assert trace.children(root) == [early_a, early_b, late]
        assert trace.children(late) == []
        trace.children(root).clear()  # the caller's copy, not the map
        assert trace.children(root) == [early_a, early_b, late]

    def test_to_text_is_what_a_rescan_per_span_rendered(self):
        spans = [span(start=float(i), end=20.0 - i, operation="GET",
                      resource=f"/{i}") for i in range(8)]
        for i, child in enumerate(spans[1:], start=1):
            child.parent_id = spans[(i - 1) // 2].span_id
        trace = Trace(list(reversed(spans)))

        def walk(node, depth, lines):
            lines.append("  " * depth + "- " + node.summary())
            for child in trace.spans:
                if child.parent_id == node.span_id:
                    walk(child, depth + 1, lines)
            return lines

        assert trace.to_text() == "\n".join(walk(spans[0], 0, []))

    def test_public_constructor_sorts_the_private_one_adopts(self):
        a, b = span(start=1.0), span(start=0.0)
        assert Trace([a, b]).spans == [b, a]
        ordered = assign_parents([a, b])
        adopted = Trace._from_ordered(ordered)
        assert adopted.spans is ordered
        assert adopted.spans == [b, a]
        assert adopted.span(a.span_id) is a


class TestTagRegistry:
    def test_register_and_resolve(self):
        registry = TagRegistry()
        registry.register("vpc-1", "10.0.1.2",
                          {"pod": "p1", "node": "n1", "version": "v3"})
        assert registry.resource_tags("vpc-1", "10.0.1.2") == {
            "pod": "p1", "node": "n1"}
        assert registry.custom_tags("vpc-1", "10.0.1.2") == {
            "version": "v3"}

    def test_int_encoding_round_trips(self):
        registry = TagRegistry()
        registry.register("vpc-1", "10.0.1.2", {"pod": "p1", "az": "az-1"})
        encoded = registry.resource_tags_encoded("vpc-1", "10.0.1.2")
        assert all(isinstance(k, int) and isinstance(v, int)
                   for k, v in encoded.items())
        assert registry.decode(encoded) == {"pod": "p1", "az": "az-1"}

    def test_full_tags_merges_custom(self):
        registry = TagRegistry()
        registry.register("v", "ip", {"pod": "p", "commit": "abc"})
        assert registry.full_tags("v", "ip") == {"pod": "p",
                                                 "commit": "abc"}

    def test_interner_is_stable(self):
        registry = TagRegistry()
        registry.register("v", "ip1", {"node": "n1"})
        registry.register("v", "ip2", {"node": "n1"})
        e1 = registry.resource_tags_encoded("v", "ip1")
        e2 = registry.resource_tags_encoded("v", "ip2")
        assert e1 == e2  # same strings, same codes

    def test_decoded_resource_tags_memo_is_dropped_by_register(self):
        registry = TagRegistry()
        registry.register("v", "ip", {"pod": "p1", "commit": "abc"})
        first = registry.decoded_resource_tags("v", "ip")
        assert first == {"pod": "p1"}  # custom labels stay out (step ⑧)
        assert registry.decoded_resource_tags("v", "ip") is first
        registry.register("v", "ip", {"pod": "p2", "node": "n1"})
        assert registry.decoded_resource_tags("v", "ip") == {
            "pod": "p2", "node": "n1"}
        assert first == {"pod": "p1"}

    def test_unregistered_endpoints_are_not_memoized(self):
        registry = TagRegistry()
        for i in range(50):
            assert registry.decoded_resource_tags("v", f"ip{i}") == {}
        assert not registry._resource_decoded


class TestEnrichment:
    """Storage-time enrichment through the per-endpoint memo."""

    @staticmethod
    def _span(span_id, ip="10.0.0.1"):
        return Span(span_id=span_id, kind=SpanKind.SYSCALL,
                    side=SpanSide.SERVER, start_time=1.0, end_time=2.0,
                    tags={"vpc": "v", "ip": ip})

    def test_register_after_ingest_changes_later_spans_only(self):
        server = DeepFlowServer()
        server.register_resource_tags("v", "10.0.0.1", {"pod": "p1"})
        early = self._span(1)
        server.ingest_spans([early])
        server.register_resource_tags("v", "10.0.0.1",
                                      {"pod": "p2", "az": "az-1"})
        late = self._span(2)
        server.ingest_spans([late])
        assert early.tags == {"vpc": "v", "ip": "10.0.0.1", "pod": "p1"}
        assert late.tags == {"vpc": "v", "ip": "10.0.0.1", "pod": "p2",
                             "az": "az-1"}

    def test_span_tags_alias_neither_each_other_nor_the_registry(self):
        server = DeepFlowServer()
        server.register_resource_tags("v", "10.0.0.1", {"pod": "p1"})
        one, two = self._span(1), self._span(2)
        server.ingest_spans([one, two])
        one.tags["pod"] = "mutated"
        one.tags["extra"] = "x"
        assert two.tags == {"vpc": "v", "ip": "10.0.0.1", "pod": "p1"}
        three = self._span(3)
        server.ingest_spans([three])
        assert three.tags == two.tags
        assert server.tags.resource_tags("v", "10.0.0.1") == {"pod": "p1"}
        assert server.tags.decoded_resource_tags("v", "10.0.0.1") == {
            "pod": "p1"}

    def test_unknown_endpoint_and_untagged_span_pass_through(self):
        server = DeepFlowServer()
        unknown = self._span(1, ip="10.9.9.9")
        bare = Span(span_id=2, kind=SpanKind.SYSCALL,
                    side=SpanSide.SERVER, start_time=1.0, end_time=2.0)
        server.ingest_spans([unknown, bare])
        assert unknown.tags == {"vpc": "v", "ip": "10.9.9.9"}
        assert bare.tags == {}


class TestQueryTimeJoin:
    """Figure 8 step ⑧: self-defined labels are joined by ``trace()``,
    never stored."""

    @staticmethod
    def _server(shards):
        server = DeepFlowServer(shards=shards)
        server.register_resource_tags("v", "10.0.0.1", {"pod": "p1"})
        spans = [Span(span_id=i, kind=SpanKind.SYSCALL,
                      side=SpanSide.SERVER, start_time=float(i),
                      end_time=i + 1.0, systrace_id=7,
                      tags={"vpc": "v", "ip": ip})
                 for i, ip in ((1, "10.0.0.1"), (2, "10.0.0.2"))]
        server.ingest_spans(spans)
        return server, spans

    @pytest.mark.parametrize("shards", [1, 4])
    def test_custom_tag_registered_after_ingest_is_joined(self, shards):
        """The label lands on the returned trace; the stored spans keep
        the tags ingest gave them."""
        server, (one, two) = self._server(shards)
        stored = [dict(one.tags), dict(two.tags)]
        server.register_resource_tags("v", "10.0.0.1",
                                      {"version": "v2", "team": "core"})
        trace = server.trace(2)
        assert [s.span_id for s in trace] == [1, 2]
        assert trace.span(1).tags == {"vpc": "v", "ip": "10.0.0.1",
                                      "pod": "p1", "version": "v2",
                                      "team": "core"}
        assert trace.span(2).tags == {"vpc": "v", "ip": "10.0.0.2"}
        assert trace.span(2) is two  # nothing to join: not copied
        assert trace.span(1).parent_id == one.parent_id
        assert [one.tags, two.tags] == stored
        trace.span(1).tags["version"] = "mutated"
        assert server.tags.custom_tags("v", "10.0.0.1") == {
            "version": "v2", "team": "core"}
        assert server.trace(1).span(1).tags["version"] == "v2"

    @pytest.mark.parametrize("shards", [1, 4])
    def test_version_bump_reaches_trace_and_span_list_alike(self, shards):
        """A label re-registered after a query: ``trace()`` joins the new
        value and ``span_list`` never carries the old one."""
        server, (one, _two) = self._server(shards)
        server.register_resource_tags("v", "10.0.0.1", {"version": "1.0"})
        assert server.trace(1).span(1).tags["version"] == "1.0"
        server.register_resource_tags("v", "10.0.0.1", {"version": "2.0"})
        assert server.trace(1).span(1).tags["version"] == "2.0"
        listed = server.span_list(0.0, 10.0)
        assert [s.span_id for s in listed] == [1, 2]
        assert all("version" not in s.tags for s in listed)
        assert "version" not in one.tags

    @pytest.mark.parametrize("shards", [1, 4])
    def test_no_custom_tag_means_no_join_and_no_lookup(self, shards,
                                                       monkeypatch):
        server, spans = self._server(shards)
        before = [dict(s.tags) for s in spans]

        def no_copy(*_args):
            raise AssertionError("trace() copied a custom-tag dict")

        monkeypatch.setattr(TagRegistry, "custom_tags", no_copy)
        assert not server.tags.custom_tag_table()
        assert len(server.trace(1)) == 2
        assert [s.tags for s in spans] == before


def _tag_row(i):
    return {f"k{j}": f"value-{j}-{i % 50}" for j in range(20)}


class TestEncoders:
    def _smart(self, rows=200):
        registry = TagRegistry()
        for i in range(50):
            registry.register("vpc-1", f"10.0.0.{i}", _tag_row(i))
        encoder = SmartEncoder(registry)
        for i in range(rows):
            encoder.insert({}, vpc="vpc-1", ip=f"10.0.0.{i % 50}")
        return encoder

    def test_direct_stores_full_strings(self):
        from repro.server.encoding import _BASE_FIELDS
        encoder = DirectEncoder()
        expected = 0
        for i in range(200):
            encoder.insert(_tag_row(i))
            expected += _BASE_FIELDS * 8  # fixed base columns
            expected += sum(len(v.encode()) + 1
                            for v in _tag_row(i).values())
        assert encoder.stats.disk_bytes == expected

    def test_low_cardinality_smaller_than_direct(self):
        direct = DirectEncoder()
        lowcard = LowCardinalityEncoder()
        for i in range(500):
            direct.insert(_tag_row(i))
            lowcard.insert(_tag_row(i))
        assert lowcard.stats.disk_bytes < direct.stats.disk_bytes

    def test_smart_smaller_than_low_cardinality(self):
        lowcard = LowCardinalityEncoder()
        for i in range(500):
            lowcard.insert(_tag_row(i))
        smart = self._smart(rows=500)
        assert smart.stats.disk_bytes < lowcard.stats.disk_bytes

    def test_smart_memory_below_alternatives(self):
        direct = DirectEncoder()
        lowcard = LowCardinalityEncoder()
        for i in range(500):
            direct.insert(_tag_row(i))
            lowcard.insert(_tag_row(i))
        smart = self._smart(rows=500)
        assert (smart.stats.total_memory_bytes
                < direct.stats.total_memory_bytes)
        assert (smart.stats.total_memory_bytes
                < lowcard.stats.total_memory_bytes)

    def test_smart_query_time_join_returns_tags(self):
        registry = TagRegistry()
        registry.register("v", "ip", {"pod": "p", "version": "v9"})
        encoder = SmartEncoder(registry)
        encoder.insert({}, vpc="v", ip="ip")
        assert encoder.query_tags("v", "ip") == {"pod": "p",
                                                 "version": "v9"}


class TestMetricsDatabase:
    def test_record_and_query(self):
        db = MetricsDatabase()
        db.record("depth", {"pod": "mq"}, 1.0, 5.0)
        db.record("depth", {"pod": "mq"}, 2.0, 7.0)
        assert db.query("depth", {"pod": "mq"}) == [(1.0, 5.0), (2.0, 7.0)]

    def test_query_time_range(self):
        db = MetricsDatabase()
        for t in range(10):
            db.record("m", {"pod": "p"}, float(t), float(t))
        assert db.query("m", {"pod": "p"}, start=3.0, end=5.0) == [
            (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]

    def test_tag_filter_is_subset_match(self):
        db = MetricsDatabase()
        db.record("m", {"pod": "a", "az": "z1"}, 1.0, 1.0)
        db.record("m", {"pod": "b", "az": "z1"}, 1.0, 2.0)
        assert db.query("m", {"pod": "a"}) == [(1.0, 1.0)]
        assert len(db.query("m", {"az": "z1"})) == 2

    def test_out_of_order_sample_rejected(self):
        db = MetricsDatabase()
        db.record("m", {}, 5.0, 1.0)
        with pytest.raises(ValueError):
            db.record("m", {}, 4.0, 1.0)

    def test_correlate_span_by_pod_tag(self):
        db = MetricsDatabase()
        db.record("depth", {"pod": "mq-pod"}, 1.0, 42.0)
        s = span(start=0.5, end=1.5)
        s.tags["pod"] = "mq-pod"
        result = db.correlate_span(s)
        assert result == {"depth": [(1.0, 42.0)]}

    def test_correlate_span_no_match(self):
        db = MetricsDatabase()
        db.record("depth", {"pod": "other"}, 1.0, 42.0)
        s = span(start=0.5, end=1.5)
        s.tags["pod"] = "mine"
        assert db.correlate_span(s) == {}


class TestStoreProperties:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_search_is_monotone_in_filter(self, pairs):
        """Asking about more spans' keys never shrinks the answer."""
        store = SpanStore()
        spans = [span(systrace_id=a, flow_key=("f",), req_tcp_seq=b)
                 for a, b in pairs]
        store.insert_many(spans)
        keys: list = []
        previous: set = set()
        for s in spans:
            keys += association_keys(s)
            current = store.carriers(keys)
            assert previous <= current
            previous = current
