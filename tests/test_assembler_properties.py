"""Property-based tests on the trace assembler's parent assignment."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import IdAllocator
from repro.core.span import Span, SpanKind, SpanSide, Trace
from repro.server.assembler import assign_parents
from tests.assign_parents_oracle import (
    assign_parents as oracle_assign_parents)

_ids = IdAllocator(12)

_side = st.sampled_from([SpanSide.CLIENT, SpanSide.SERVER,
                         SpanSide.NETWORK, SpanSide.NETWORK, SpanSide.APP])

#: A coarse grid next to the free floats: equal start times (canonical
#: order then falls to the span id) and intervals that enclose each
#: other (rules 6 and 7) become common instead of measure-zero.
_start = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                   st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False))
_duration = st.one_of(st.sampled_from([0.25, 1.0, 4.0]),
                      st.floats(min_value=0.001, max_value=1.0,
                                allow_nan=False))
_otel_id = st.one_of(st.none(), st.sampled_from(["o1", "o2", "o3"]))


@st.composite
def random_span(draw):
    """One span of any kind.  The key spaces are small on purpose: a
    dozen spans over two flows × two sequences put several client and
    server candidates in one message group, network spans tie on their
    path index, response sequences disagree, several server spans share
    a systrace id or a queue message, and app spans name each other as
    parents."""
    side = draw(_side)
    if side is SpanSide.NETWORK:
        kind = SpanKind.NETWORK
    elif side is SpanSide.APP:
        kind = SpanKind.APP
    else:
        kind = draw(st.sampled_from([SpanKind.SYSCALL, SpanKind.UPROBE]))
    app = kind is SpanKind.APP
    start = draw(_start)
    return Span(
        span_id=_ids.next_id(),
        kind=kind,
        side=side,
        start_time=start,
        end_time=start + draw(_duration),
        host=draw(st.sampled_from(["n1", "n2"])),
        pid=draw(st.integers(min_value=1, max_value=2)),
        protocol=draw(st.sampled_from(["amqp", "amqp", "http"])),
        resource=draw(st.sampled_from(["q", "q", "/a"])),
        systrace_id=draw(st.sampled_from([None, None, 1, 2, 3])),
        pseudo_thread_key=None,
        x_request_id=draw(st.sampled_from(["x1", "x1", "x2", None])),
        flow_key=draw(st.sampled_from([("f1",), ("f1",), ("f2",), None])),
        req_tcp_seq=draw(st.sampled_from([1, 1, 2, None])),
        resp_tcp_seq=draw(st.one_of(st.none(),
                                    st.integers(min_value=1,
                                                max_value=2))),
        path_index=draw(st.integers(min_value=0, max_value=2)),
        message_id=draw(st.sampled_from([1, 1, 2, None])),
        otel_span_id=draw(_otel_id) if app else None,
        otel_parent_span_id=draw(_otel_id) if app else None,
    )


@st.composite
def span_sets(draw):
    """A span set as a store hands it over: any order, and now and then
    the same span object more than once."""
    spans = draw(st.lists(random_span(), min_size=8, max_size=25))
    twice = draw(st.lists(st.sampled_from(spans), max_size=3))
    return list(draw(st.permutations(spans + twice)))


def parent_map(spans):
    return {span.span_id: span.parent_id for span in spans}


@given(spans=span_sets(), queue_relay=st.booleans(),
       x_request_id=st.booleans())
@settings(max_examples=300)
def test_parent_map_equals_the_frozen_oracle(spans, queue_relay,
                                             x_request_id):
    """The one-canonical-order rule table assigns exactly the parents
    the per-group ``_pick`` / ``sorted`` table it replaced assigned, and
    hands back the spans in canonical order."""
    switches = {"enable_queue_relay": queue_relay,
                "enable_x_request_id": x_request_id}
    oracle_assign_parents(spans, **switches)
    expected = parent_map(spans)
    ordered = assign_parents(spans, **switches)
    assert parent_map(spans) == expected
    assert [id(span) for span in ordered] == [
        id(span) for span in sorted(
            spans, key=lambda span: (span.start_time, span.span_id))]


def test_parent_map_equals_the_oracle_on_a_recorded_tape():
    """The same equality over every trace of a recorded ``chain_fanout``
    span tape (the benchmark's own capture, at 12 requests), in the
    order the push path collected each trace's spans."""
    from benchmarks.e2e.workloads import SpanTape

    server, _exporter = SpanTape(1, 12, "/oracle").replay_push()
    finished = server.streaming.finished
    assert len(finished) == 12
    for record in finished:
        spans = list(reversed(record.trace.spans))
        expected = parent_map(record.trace)
        assert any(expected.values())
        oracle_assign_parents(spans)
        assert parent_map(spans) == expected
        assign_parents(spans)
        assert parent_map(spans) == expected


@given(spans=st.lists(random_span(), min_size=0, max_size=25))
@settings(max_examples=150)
def test_parent_assignment_never_creates_cycles(spans):
    """Whatever adversarial association keys spans carry, the parent
    relation must stay a forest: no cycles, parents inside the set or
    treated as roots."""
    assign_parents(spans)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        assert span.parent_id != span.span_id
        seen = {span.span_id}
        current = span
        while current.parent_id is not None:
            assert current.parent_id not in seen, "cycle detected"
            seen.add(current.parent_id)
            next_span = by_id.get(current.parent_id)
            if next_span is None:
                break
            current = next_span


@given(spans=st.lists(random_span(), min_size=1, max_size=25))
@settings(max_examples=100)
def test_assignment_is_deterministic(spans):
    import copy
    copy_a = copy.deepcopy(spans)
    copy_b = copy.deepcopy(spans)
    assign_parents(copy_a)
    assign_parents(copy_b)
    assert ([span.parent_id for span in copy_a]
            == [span.parent_id for span in copy_b])


@given(spans=st.lists(random_span(), min_size=1, max_size=25))
@settings(max_examples=100)
def test_assignment_is_order_insensitive(spans):
    """Shuffling the input list must not change who parents whom."""
    import copy
    forward = copy.deepcopy(spans)
    backward = copy.deepcopy(spans)
    backward_view = list(reversed(backward))
    assign_parents(forward)
    assign_parents(backward_view)
    parents_forward = {span.span_id: span.parent_id for span in forward}
    parents_backward = {span.span_id: span.parent_id for span in backward}
    assert parents_forward == parents_backward


@given(spans=st.lists(random_span(), min_size=1, max_size=25))
@settings(max_examples=100)
def test_trace_renders_whatever_the_assignment(spans):
    """Trace rendering is total: any assignment yields a printable tree."""
    assign_parents(spans)
    trace = Trace(spans)
    text = trace.to_text()
    assert isinstance(text, str)
    assert len(trace.roots()) >= 1
