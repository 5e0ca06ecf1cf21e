"""Property tests: the pull read path answers from what the write path
keeps, and answers exactly what recomputing would.

``server.trace()`` memoizes parent assignment per component under the
forest's ``(root, size)`` pair and the ablation switches;
``slowest_span()`` reads each time segment's kept maximum per side.
Random interleavings of ingest batches, trace queries, push-path
``build_trace`` calls on fragments (which re-parent stored spans),
ablation-switch flips, self-defined label registration and retention
drops must leave both answers identical to the cold recomputation: a
fresh ``build_trace`` over the component, and ``max`` over the span
list.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.assembler import build_trace
from repro.server.server import DeepFlowServer

WINDOW = 60.0
IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")

#: Quarter-second grid: every start, end and duration is exact in
#: binary, so equal durations tie exactly, within and across segments.
_QUARTERS = st.integers(min_value=0, max_value=4 * 150).map(lambda q: q / 4)
_DURATION = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])

_SPAN = st.fixed_dictionaries({
    "offset": _QUARTERS,
    "duration": _DURATION,
    "kind": st.sampled_from(list(SpanKind)),
    "side": st.sampled_from(list(SpanSide)),
    "protocol": st.sampled_from(["", "http", "amqp"]),
    "resource": st.sampled_from(["", "q1"]),
    "systrace_id": st.none() | st.integers(0, 4),
    "x_request_id": st.none() | st.sampled_from(["xa", "xb"]),
    "flow_key": st.none() | st.tuples(st.just("flow"), st.integers(0, 1)),
    "req_tcp_seq": st.none() | st.integers(0, 3),
    "resp_tcp_seq": st.none() | st.integers(0, 3),
    "otel_trace_id": st.none() | st.sampled_from(["ota"]),
    "message_id": st.none() | st.integers(0, 2),
    "ip": st.sampled_from(IPS),
})

#: Range bounds: anywhere, on a segment boundary, or on a span start
#: (an index into the stored spans, resolved when the step runs).
_BOUND = st.one_of(
    st.tuples(st.just("any"), _QUARTERS),
    st.tuples(st.just("edge"), st.integers(0, 8)),
    st.tuples(st.just("span"), st.integers(0, 1000)),
)

_BATCH = st.lists(_SPAN, min_size=1, max_size=8)
_QUERY = st.tuples(st.just("query"), st.integers(0, 1000))
_FRAGMENT = st.tuples(st.just("fragment"), st.integers(0, 1000),
                      st.integers(0, 255))

#: Queries and fragments are listed twice: repeat asks, with the push
#: path re-parenting in between, are what exercise the memo.
_STEP = st.one_of(
    st.tuples(st.just("ingest"), _BATCH, st.booleans()),
    _QUERY, _QUERY, _FRAGMENT, _FRAGMENT,
    st.tuples(st.just("flip"), st.booleans(), st.booleans()),
    st.tuples(st.just("label"), st.sampled_from(IPS),
              st.sampled_from(["v1", "v2"])),
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("slowest"), st.sampled_from(list(SpanSide)),
              _BOUND, _BOUND | st.just(("inf", None))),
)


class Run:
    """One server under a random step sequence, with every answer
    checked against the cold recomputation as it is given."""

    def __init__(self, shards: int) -> None:
        self.server = DeepFlowServer(shards=shards)
        self.store = self.server.store
        self.clock = 0.0
        self.next_id = 1
        self.graph = self.store.graph
        self.roots: set[int] = set()

    def stored_ids(self) -> list[int]:
        return sorted(span.span_id for span in self.store.all_spans())

    def pick(self, index: int):
        ids = self.stored_ids()
        return ids[index % len(ids)] if ids else None

    def bound(self, spec) -> float:
        kind, value = spec
        if kind == "any":
            return self.clock + value - 60.0
        if kind == "edge":
            return (self.clock // WINDOW + value - 4) * WINDOW
        if kind == "inf":
            return math.inf
        span_id = self.pick(value)
        return 0.0 if span_id is None else self.store.get(span_id).start_time

    def ingest(self, specs, with_clock: bool) -> None:
        batch = []
        for spec in specs:
            start = self.clock + spec["offset"]
            batch.append(Span(
                span_id=self.next_id, kind=spec["kind"], side=spec["side"],
                start_time=start, end_time=start + spec["duration"],
                protocol=spec["protocol"], resource=spec["resource"],
                systrace_id=spec["systrace_id"],
                x_request_id=spec["x_request_id"],
                flow_key=spec["flow_key"],
                req_tcp_seq=spec["req_tcp_seq"],
                resp_tcp_seq=spec["resp_tcp_seq"],
                otel_trace_id=spec["otel_trace_id"],
                message_id=spec["message_id"],
                tags={"vpc": "v", "ip": spec["ip"]}))
            self.next_id += 1
        now = self.clock + 150.0 if with_clock else None
        self.server.ingest_spans(batch, now=now)

    def query(self, index: int) -> None:
        span_id = self.pick(index)
        if span_id is None:
            return
        store, assembler = self.store, self.server.assembler
        if store.graph is not self.graph:  # a drop rebuilt the forest
            self.graph = store.graph
            self.roots = set()
        root, _size = store.component_key(span_id)
        switches = (assembler.enable_queue_relay,
                    assembler.enable_x_request_id)
        trace = self.server.trace(span_id)
        self.roots.add(root)
        assert len(assembler._memo) <= len(self.roots)
        cold = build_trace(
            [dataclasses.replace(span)
             for span in store.component_spans(span_id)],
            enable_queue_relay=switches[0],
            enable_x_request_id=switches[1])
        assert ([span.span_id for span in trace.spans]
                == [span.span_id for span in cold.spans])
        parents = [span.parent_id for span in cold.spans]
        assert [span.parent_id for span in trace.spans] == parents
        # The stored spans carry what a miss would have set.
        assert [store.get(span.span_id).parent_id
                for span in cold.spans] == parents
        custom = self.server.tags.custom_tag_table()
        for span in trace.spans:
            labels = custom.get((span.tags["vpc"], span.tags["ip"]), {})
            assert all(span.tags.get(key) == value
                       for key, value in labels.items())
            assert not any(key in store.get(span.span_id).tags
                           for key in labels)

    def fragment(self, index: int, mask: int) -> None:
        """The push path assembling part of a component: it re-parents
        the stored spans it is handed."""
        span_id = self.pick(index)
        if span_id is None:
            return
        members = sorted(self.store.component_spans(span_id),
                         key=lambda span: span.span_id)
        picked = [span for bit, span in enumerate(members)
                  if mask >> (bit % 8) & 1]
        if picked:
            build_trace(picked)

    def slowest(self, side, low, high) -> None:
        start, end = self.bound(low), self.bound(high)
        got = self.server.slowest_span(side, start, end)
        listed = [span for span in self.store.span_list(start, end)
                  if span.side is side]
        expected = (max(listed, key=lambda span: span.duration)
                    if listed else None)
        assert got is expected

    def step(self, step) -> None:
        kind = step[0]
        if kind == "ingest":
            self.ingest(step[1], step[2])
        elif kind == "query":
            self.query(step[1])
        elif kind == "fragment":
            self.fragment(step[1], step[2])
        elif kind == "flip":
            self.server.assembler.enable_queue_relay = step[1]
            self.server.assembler.enable_x_request_id = step[2]
        elif kind == "label":
            self.server.register_resource_tags("v", step[1],
                                               {"version": step[2]})
        elif kind == "advance":
            self.clock += step[1] * WINDOW / 2
        else:
            self.slowest(*step[1:])


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=40),
       shards=st.integers(min_value=1, max_value=2),
       switches=st.tuples(st.booleans(), st.booleans()),
       late=_BATCH, mask=st.integers(0, 255))
def test_memoized_trace_and_kept_maxima_match_cold_answers(
        steps, shards, switches, late, mask):
    """Every ``trace()`` equals a cold ``build_trace`` of its component
    in span order and in every ``parent_id``, on the returned spans and
    on the stored ones; the memo never holds more entries than roots
    queried since the last drop; every ``slowest_span`` is the span
    ``max`` over the span list picks.

    After the drawn steps every stored span is asked for (memoizing its
    component), the switches are set to *switches*, its component is
    re-parented by a push-path fragment, and it is asked for again (a
    hit where the switches did not change, which must write the parents
    back); then a *late* batch joins the components and every span is
    asked for once more (a miss wherever its component grew).  Every
    stored start bounds a range on each side, so segments are covered
    in part as well as whole."""
    run = Run(shards)
    for step in steps:
        run.step(step)
    count = len(run.stored_ids())
    for index in range(count):
        run.query(index)
    run.step(("flip", *switches))
    for index in range(count):
        run.fragment(index, mask)
        run.query(index)
    run.ingest(late, with_clock=False)
    for index in range(len(run.stored_ids())):
        run.query(index)
    for side in SpanSide:
        run.slowest(side, ("edge", -10), ("inf", None))
        for index in range(len(run.stored_ids())):
            run.slowest(side, ("span", index), ("inf", None))
            run.slowest(side, ("edge", -10), ("span", index))
    assert run.store._slowest.keys() == run.store._segments.keys()


def test_repeat_query_is_a_hit_and_growth_is_a_miss():
    """A repeat ask reads no component; a span joining the component,
    a switch flip and a retention drop each force a fresh assembly."""
    server = DeepFlowServer(shards=1)

    def span(span_id, start, systrace_id):
        return Span(span_id=span_id, kind=SpanKind.SYSCALL,
                    side=SpanSide.SERVER if span_id == 1
                    else SpanSide.CLIENT,
                    start_time=start, end_time=start + 0.5,
                    systrace_id=systrace_id)

    server.ingest_spans([span(1, 0.0, 7), span(2, 0.1, 7)])
    reads = []
    component_spans = server.store.component_spans

    def counting(span_id):
        reads.append(span_id)
        return component_spans(span_id)

    server.store.component_spans = counting
    first = server.trace(1)
    assert [s.parent_id for s in first.spans] == [None, 1]
    again = server.trace(2)
    assert len(reads) == 1
    assert again.spans is not first.spans
    assert [s.parent_id for s in again.spans] == [None, 1]

    server.ingest_spans([span(3, 0.2, 7)])
    assert len(server.trace(1)) == 3 and len(reads) == 2
    server.assembler.enable_x_request_id = False
    server.trace(1)
    assert len(reads) == 3
    server.trace(1)
    assert len(reads) == 3

    graph = server.store.graph
    server.ingest_spans([span(4, 200.0, 7)], now=200.0)  # drops 0–60 s
    assert server.store.graph is not graph
    assert [s.span_id for s in server.trace(4)] == [4]
    assert list(server.assembler._memo) == [4]


def test_slowest_span_ties_across_segments_and_partial_ranges():
    """Equal durations in three segments: the earliest wins whether a
    segment is covered whole (kept maximum) or in part (scanned)."""
    server = DeepFlowServer(shards=4)
    spans = []
    for span_id, start in enumerate((130.0, 10.0, 70.0, 75.0, 20.0), 1):
        spans.append(Span(span_id=span_id, kind=SpanKind.SYSCALL,
                          side=SpanSide.CLIENT, start_time=start,
                          end_time=start + 2.0))
    server.ingest_spans(spans)
    for start, end in ((0.0, math.inf), (15.0, math.inf), (60.0, 140.0),
                       (72.0, 200.0), (0.0, 10.0), (125.0, 131.0),
                       (121.0, 129.0)):
        listed = [span for span in server.span_list(start, end)]
        expected = (max(listed, key=lambda span: span.duration)
                    if listed else None)
        assert server.slowest_span(SpanSide.CLIENT, start, end) \
            is expected
    assert server.slowest_span().span_id == 2
    assert server.slowest_span(SpanSide.SERVER) is None
