"""Property tests: the trace-graph index against the Algorithm 1 oracle.

Production answers "which spans form this trace?" from an
incrementally maintained union-find; :mod:`repro.server.reference`
iterates the paper's Algorithm 1.  Both must compute the same fixed point — the
connected component of the association graph — on any span population,
for any insertion order and batching, with queue-relay keys in play and
the ablation flags in every combination.

A third implementation keeps the other two honest: an in-test BFS over
an adjacency map built straight from
:func:`repro.server.index.association_keys`.  Because the store's fused
ingest loop *inlines* those axis checks, this oracle is what detects the
two definitions drifting apart.
"""

from hypothesis import given, settings, strategies as st

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.assembler import TraceAssembler
from repro.server.database import SpanStore
from repro.server.index import association_keys
from repro.server.reference import assemble_iterative, collect_iterative
from repro.server.sharding import ShardedSpanStore

#: Small key domains keep the random association graphs densely
#: connected, so the iterative reference converges far below the
#: generous iteration budget these tests give it.
_SYSTRACE = st.none() | st.integers(min_value=0, max_value=5)
_PTHREAD = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2))
_XREQ = st.none() | st.sampled_from(["xa", "xb", "xc"])
_FLOW = st.none() | st.tuples(st.just("flow"), st.integers(0, 2))
_SEQ = st.none() | st.integers(min_value=0, max_value=4)
_OTEL = st.none() | st.sampled_from(["ota", "otb"])
#: "http" carries a message id but is not a queue-relay protocol, so it
#: must NOT associate through the mq axis.
_PROTOCOL = st.sampled_from(["", "http", "amqp", "kafka", "mqtt"])
_MESSAGE_ID = st.none() | st.integers(min_value=0, max_value=3)


@st.composite
def span_lists(draw, min_size=1, max_size=30):
    """Random span populations exercising every association axis."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    spans = []
    for span_id in range(count):
        start = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False))
        spans.append(Span(
            span_id=span_id,
            kind=draw(st.sampled_from(list(SpanKind))),
            side=draw(st.sampled_from(list(SpanSide))),
            start_time=start,
            end_time=start + draw(st.floats(min_value=0.0, max_value=1.0,
                                            allow_nan=False)),
            protocol=draw(_PROTOCOL),
            resource=draw(st.sampled_from(["", "q1", "q2"])),
            systrace_id=draw(_SYSTRACE),
            pseudo_thread_key=draw(_PTHREAD),
            x_request_id=draw(_XREQ),
            flow_key=draw(_FLOW),
            req_tcp_seq=draw(_SEQ),
            resp_tcp_seq=draw(_SEQ),
            otel_trace_id=draw(_OTEL),
            message_id=draw(_MESSAGE_ID),
        ))
    return spans


def _oracle_component(spans, start_id):
    """BFS fixed point over association_keys — independent of the store."""
    carriers = {}
    for span in spans:
        for key in association_keys(span):
            carriers.setdefault(key, set()).add(span.span_id)
    by_id = {span.span_id: span for span in spans}
    component = {start_id}
    frontier = [start_id]
    while frontier:
        next_frontier = []
        for span_id in frontier:
            for key in association_keys(by_id[span_id]):
                for other in carriers[key]:
                    if other not in component:
                        component.add(other)
                        next_frontier.append(other)
        frontier = next_frontier
    return component


#: A generous iteration budget: these tests check the *un-truncated*
#: fixed point, not the paper's default cap (which is covered
#: separately by test_server_components.py).
ITERATIONS = 200


def _reference_ids(store, span_id):
    found = collect_iterative(store, span_id, ITERATIONS)
    assert found.rounds < ITERATIONS  # converged, not truncated
    return {s.span_id for s in found.spans}


@settings(max_examples=120, deadline=None)
@given(spans=span_lists())
def test_fast_path_matches_reference_and_oracle(spans):
    """component_spans() == collect_iterative() == BFS oracle, from
    every start."""
    store = SpanStore()
    store.insert_many(spans)
    for span in spans:
        fast = {s.span_id for s in store.component_spans(span.span_id)}
        assert fast == _reference_ids(store, span.span_id)
        assert fast == _oracle_component(spans, span.span_id)


@settings(max_examples=80, deadline=None)
@given(spans=span_lists(min_size=2),
       cut=st.integers(min_value=0, max_value=100),
       query_between=st.booleans(),
       singles=st.booleans())
def test_incremental_inserts_match_bulk_insert(spans, cut,
                                               query_between, singles):
    """Components are the same whether spans arrive in one batch, in
    several, or one at a time — including when queries (which trigger
    the lazy index commits) land between the batches."""
    bulk = SpanStore()
    bulk.insert_many(spans)

    incremental = SpanStore()
    cut = cut % len(spans)
    incremental.insert_many(spans[:cut])
    if query_between and cut:
        # Force commits mid-stream: later inserts must extend, not
        # corrupt, already-committed components.
        incremental.component_ids(spans[0].span_id)
        incremental.span_list(0.0, float("inf"))
    if singles:
        for span in spans[cut:]:
            incremental.insert_many((span,))
    else:
        incremental.insert_many(spans[cut:])

    for span in spans:
        assert (incremental.component_ids(span.span_id)
                == bulk.component_ids(span.span_id))
    assert len(incremental.span_list(0.0, float("inf"))) == len(spans)


@settings(max_examples=60, deadline=None)
@given(spans=span_lists(),
       queue_relay=st.booleans(),
       x_request_id=st.booleans(),
       iterative=st.booleans())
def test_assemble_span_set_stable_under_ablations(spans, queue_relay,
                                                  x_request_id,
                                                  iterative):
    """The ablation flags change parent wiring, never trace membership,
    on either path."""
    store = SpanStore()
    store.insert_many(spans)
    start = spans[0].span_id
    if iterative:
        trace = assemble_iterative(store, start, ITERATIONS,
                                   enable_queue_relay=queue_relay,
                                   enable_x_request_id=x_request_id)
    else:
        trace = TraceAssembler(
            store, enable_queue_relay=queue_relay,
            enable_x_request_id=x_request_id).assemble(start)
    assert ({span.span_id for span in trace}
            == _oracle_component(spans, start))


@settings(max_examples=80, deadline=None)
@given(spans=span_lists(),
       shards=st.integers(min_value=1, max_value=8),
       window=st.sampled_from([0.5, 2.0, 60.0]),
       cut=st.integers(min_value=0, max_value=100),
       tenant=st.sampled_from([None, "acme"]),
       sealed=st.lists(st.integers(min_value=0, max_value=7), unique=True),
       query_between=st.booleans())
def test_sharded_components_match_unsharded(spans, shards, window, cut,
                                            tenant, sealed, query_between):
    """Sharded `trace()` over N shards == one unsharded store ==
    the BFS oracle, for every start span.

    The small key domains make cross-shard keys the common case, and a
    sub-second routing window splits even single-key traces across
    shards — the boundary merge has to recover both.  The first batch
    goes in under a drawn tenant label (salted routes, stamped tags).
    A partial seal then commits only a drawn subset of shards before a
    merge, so a key can reach the owner table from one shard in this
    round and from another a round later; mid-stream queries force
    per-shard commits and boundary merges to interleave with later
    inserts.
    """
    single = SpanStore()
    single.insert_many(spans)
    sharded = ShardedSpanStore(shards, window=window)
    cut = cut % len(spans)
    sharded.insert_many(spans[:cut], tenant=tenant)
    assert all(span.tags.get("tenant") == tenant for span in spans[:cut])
    for shard_index in sealed:
        if shard_index < shards:
            sharded.seal_shard(shard_index)
    if sealed:
        sharded.merge_boundaries()
    if query_between and cut:
        # Trigger the seal/merge machinery mid-stream: later inserts
        # must extend the owner table, not corrupt it.
        sharded.component_ids(spans[0].span_id)
        sharded.span_list(0.0, float("inf"))
    for span in spans[cut:]:
        sharded.insert_many((span,))
    for span in spans:
        merged = sharded.component_ids(span.span_id)
        assert merged == single.component_ids(span.span_id)
        assert merged == _oracle_component(spans, span.span_id)
        # The read-out is the same walk: each member once, the very
        # object its owning shard stores.
        found = sharded.component_spans(span.span_id)
        assert len(found) == len(merged)
        assert ({id(member) for member in found}
                == {id(sharded.get(span_id)) for span_id in merged})
    # The time-ordered view survives sharding too (concat and sort).
    assert ([s.span_id for s in sharded.span_list(0.0, float("inf"))]
            == [s.span_id for s in single.span_list(0.0, float("inf"))])


@settings(max_examples=40, deadline=None)
@given(spans=span_lists(), shards=st.integers(min_value=2, max_value=8))
def test_sharded_fast_path_matches_iterative_reference(spans, shards):
    """Over a sharded store, the shared-forest union-find read-out and
    the iterative Algorithm 1 reference (which fans each round's
    frontier keys out to every shard) stay equivalent."""
    sharded = ShardedSpanStore(shards, window=1.0)
    sharded.insert_many(spans)
    for span in spans:
        # Reference first: on the first start it meets uncommitted tails.
        reference = _reference_ids(sharded, span.span_id)
        fast = {s.span_id for s in sharded.component_spans(span.span_id)}
        assert fast == reference
        assert fast == _oracle_component(spans, span.span_id)


@settings(max_examples=60, deadline=None)
@given(spans=span_lists())
def test_queue_relay_protocol_gating(spans):
    """Only amqp/kafka/mqtt message ids associate spans; an http span
    with the same (resource, message id) must stay out of the mq axis."""
    store = SpanStore()
    store.insert_many(spans)
    relayed = [span for span in spans
               if span.protocol in ("amqp", "kafka", "mqtt")
               and span.message_id is not None]
    for a in relayed:
        for b in relayed:
            if (a.protocol, a.resource, a.message_id) \
                    == (b.protocol, b.resource, b.message_id):
                assert b.span_id in store.component_ids(a.span_id)
    for span in spans:
        if span.protocol == "http" and span.message_id is not None:
            keys = association_keys(span)
            assert not any(key[0] == "mq" for key in keys)
