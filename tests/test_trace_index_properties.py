"""Property tests: the trace-graph index against the Algorithm 1 oracle.

Production answers "which spans form this trace?" from an
incrementally maintained union-find; :mod:`repro.server.reference`
iterates the paper's Algorithm 1.  Both must compute the same fixed point — the
connected component of the association graph — on any span population,
for any insertion order and batching, with queue-relay keys in play and
the ablation flags in every combination.

A third implementation keeps the other two honest: an in-test BFS over
an adjacency map built straight from
:func:`repro.server.index.association_keys`, the one definition of the
axes.  The store files each key under its raw identifier in a per-axis
map, so the oracle is what detects axes leaking into each other: the
X-Request-ID and the third-party trace id are drawn from one pool, and
equal identifiers on those two different axes must not link two spans.
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
#: X-Request-IDs and third-party trace ids: one pool for both axes.
_TRACE_ID = st.none() | st.sampled_from(["ta", "tb", "tc"])
_FLOW = st.none() | st.tuples(st.just("flow"), st.integers(0, 2))
_SEQ = st.none() | st.integers(min_value=0, max_value=4)
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
            x_request_id=draw(_TRACE_ID),
            flow_key=draw(_FLOW),
            req_tcp_seq=draw(_SEQ),
            resp_tcp_seq=draw(_SEQ),
            otel_trace_id=draw(_TRACE_ID),
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


def _kept(spans, shards, window):
    """The spans a segmented store of depth *shards* keeps: those whose
    segment is within *shards* of the newest one offered."""
    newest = max(span.start_time // window for span in spans)
    return [span for span in spans
            if span.start_time // window >= newest - shards]


@settings(max_examples=80, deadline=None)
@given(spans=span_lists(),
       shards=st.integers(min_value=1, max_value=8),
       window=st.sampled_from([0.5, 2.0, 60.0]),
       cut=st.integers(min_value=0, max_value=100),
       tenant=st.sampled_from([None, "acme"]),
       sealed=st.lists(st.integers(min_value=0, max_value=20), unique=True),
       query_between=st.booleans())
def test_sharded_components_match_unsharded(spans, shards, window, cut,
                                            tenant, sealed, query_between):
    """Segments ≡ one store: over any window and retention depth, a
    segmented store answers ``trace()`` and span lists exactly as one
    plain store fed the spans it kept — and both match the BFS oracle
    over those spans.

    Spans start anywhere in [0, 10] s, so a sub-second window spreads
    even single-key traces over many segments and a shallow depth drops
    the oldest ones, mid-stream as well as at the end.  The first batch
    carries a drawn tenant label in its tags, which the store keeps as
    it is and partitions nothing by; a drawn subset
    of segments is sealed and the posting map merged before the rest
    arrives one span at a time, and mid-stream queries force the
    commits to interleave with later inserts and drops.
    """
    segmented = ShardedSpanStore(shards, window=window)
    cut = cut % len(spans)
    if tenant is not None:
        for span in spans[:cut]:
            span.tags["tenant"] = tenant
    stored = segmented.insert_many(spans[:cut])
    assert all(span.tags.get("tenant") == tenant for span in stored)
    for key in sealed:
        segmented.seal_shard(key)
    if sealed:
        segmented.merge_boundaries()
    if query_between and cut:
        survivor = segmented.all_spans()[0].span_id
        segmented.component_ids(survivor)
        segmented.span_list(0.0, float("inf"))
    for span in spans[cut:]:
        segmented.insert_many((span,))
    kept = _kept(spans, shards, window)
    assert sorted(s.span_id for s in segmented.all_spans()) == sorted(
        s.span_id for s in kept)
    single = SpanStore()
    single.insert_many(kept)
    for span in kept:
        merged = segmented.component_ids(span.span_id)
        assert merged == single.component_ids(span.span_id)
        assert merged == _oracle_component(kept, span.span_id)
        # The read-out: each member once, the very object stored.
        found = segmented.component_spans(span.span_id)
        assert len(found) == len(merged)
        assert ({id(member) for member in found}
                == {id(segmented.get(span_id)) for span_id in merged})
    # The time-ordered view: segments concatenated in key order.
    assert ([s.span_id for s in segmented.span_list(0.0, float("inf"))]
            == [s.span_id for s in single.span_list(0.0, float("inf"))])


@settings(max_examples=40, deadline=None)
@given(spans=span_lists(), shards=st.integers(min_value=2, max_value=8))
def test_sharded_fast_path_matches_iterative_reference(spans, shards):
    """Over a segmented store, the union-find read-out and the iterative
    Algorithm 1 reference (which reads the one posting map each round)
    stay equivalent, on whatever retention kept."""
    segmented = ShardedSpanStore(shards, window=1.0)
    segmented.insert_many(spans)
    kept = _kept(spans, shards, 1.0)
    for span in kept:
        # Reference first: on the first start it meets uncommitted tails.
        reference = _reference_ids(segmented, span.span_id)
        fast = {s.span_id for s in segmented.component_spans(span.span_id)}
        assert fast == reference
        assert fast == _oracle_component(kept, span.span_id)


@settings(max_examples=60, deadline=None)
@given(spans=span_lists(min_size=2),
       shards=st.integers(min_value=1, max_value=3),
       batch=st.integers(min_value=1, max_value=8),
       armed=st.booleans())
def test_segment_drop_leaves_what_a_fresh_store_of_the_survivors_has(
        spans, shards, batch, armed):
    """After segments drop, every survivor's component, carriers and
    time-ordered list are what a fresh store fed only the survivors
    returns, and the forest rebuild emits no component events.

    Spans arrive in time order, in batches, into half-second segments
    with a shallow depth; a last span far in the future opens a segment
    past every other's horizon, so the drops are certain."""
    spans = sorted(spans, key=lambda span: span.start_time)
    segmented = ShardedSpanStore(shards, window=0.5)
    if armed:
        segmented.arm_component_events()
    *head, last = spans
    for start in range(0, len(head), batch):
        segmented.insert_many(head[start:start + batch])
        if armed:
            segmented.take_component_events()
    last.start_time = last.end_time = 20.0
    segmented.insert_many((last,))
    if armed:
        assert all(last.span_id in pair
                   for pair in segmented.take_component_events())
    kept = _kept(spans, shards, 0.5)
    assert segmented.shard_stats()["segments_dropped"] > 0
    fresh = SpanStore()
    fresh.insert_many(kept)
    assert len(segmented) == len(kept)
    for span in kept:
        assert (segmented.component_ids(span.span_id)
                == fresh.component_ids(span.span_id))
        keys = association_keys(span)
        assert segmented.carriers(keys) == fresh.carriers(keys)
    assert ([id(s) for s in segmented.span_list(0.0, float("inf"))]
            == [id(s) for s in fresh.span_list(0.0, float("inf"))])


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
