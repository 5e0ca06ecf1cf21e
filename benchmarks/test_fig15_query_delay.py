"""Figure 15 — user query delay of spans and traces.

Paper protocol (§5.3): generate sufficient spans with load generators,
then issue span-list queries (15-minute range) and single-trace queries,
each both sequentially and randomly, via serial calls.  Paper results:
one trace assembles in ≈1 s, a 15-minute span list returns in ≈0.06 s —
the trace query is roughly an order of magnitude slower because it runs
Algorithm 1's iterative search.

We populate the store by actually running the Spring-Boot demo under
DeepFlow (every span goes through the real pipeline), then benchmark the
two query classes and assert the ordering.

The server's :class:`TraceAssembler` memoizes parent assignment per
component, so asking for a trace a second time is a memo hit.  A *cold*
query here is the first ask of its component, on a fresh assembler over
the same store; a *warm* one is a hit on an assembler that has answered
it before.  Both time ``assemble`` — ``server.trace()`` adds the
self-defined label join on top — and are reported apart; the headline
assertions hold on cold queries.  Each side of a headline
comparison is timed as the best of :data:`PASSES` passes, so one pass
that a busy host slows does not decide it.
"""

import time

import pytest

from benchmarks.conftest import deploy_deepflow, flush_all, print_table, \
    run_wrk2

from repro.apps import springboot
from repro.core.span import SpanSide
from repro.server.assembler import TraceAssembler
from repro.server.database import SpanStore
from repro.server.reference import assemble_iterative, collect_iterative
from repro.server.streaming import ContinuousAssembler
from repro.sim.engine import Simulator

REQUESTS_TARGET = 400

#: Timed passes per side of a headline comparison; the best one counts.
PASSES = 3


def best_per_call(calls):
    """The fastest of :data:`PASSES` timed runs of ``calls()``, divided
    by the number of calls it reports making, seconds.  ``calls`` sets
    itself up afresh each pass (a fresh assembler keeps a cold pass
    cold)."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        count = calls()
        best = min(best, (time.perf_counter() - start) / count)
    return best


def cold_trace(server, span_id):
    """The trace of *span_id* from a fresh assembler: never a memo hit."""
    return TraceAssembler(server.store).assemble(span_id)


def warm_assembler(server, span_ids):
    """An assembler that has answered for every one of *span_ids*."""
    assembler = TraceAssembler(server.store)
    for span_id in span_ids:
        assembler.assemble(span_id)
    return assembler


@pytest.fixture(scope="module")
def populated_server():
    sim = Simulator(seed=77)
    demo = springboot.build(sim)
    server, agents = deploy_deepflow(demo.cluster)
    report = run_wrk2(sim, demo.pods["loadgen"], demo.entry_ip,
                      demo.entry_port, rate=REQUESTS_TARGET / 2.0,
                      duration=2.0, connections=8, path="/api/orders")
    flush_all(sim, agents)
    server.store.flush()  # price index commit as ingest, not first query
    assert report.completed > REQUESTS_TARGET * 0.9
    client_spans = [span for span in server.store.all_spans()
                    if span.side is SpanSide.CLIENT
                    and span.process_name == "wrk2"]
    return server, client_spans, sim


def test_fig15_span_list_query(benchmark, populated_server):
    server, _client_spans, sim = populated_server
    result = benchmark(lambda: server.span_list(0.0, sim.now))
    assert len(result) == len(server.store)


def test_fig15_trace_query_sequential(benchmark, populated_server):
    """Cold trace queries in span order: each one the first ask of its
    component."""
    server, client_spans, _sim = populated_server
    iterator = iter(client_spans * 1000)

    def query_next():
        return cold_trace(server, next(iterator).span_id)

    trace = benchmark(query_next)
    assert len(trace) == 10


def test_fig15_trace_query_random(benchmark, populated_server):
    """Cold trace queries in random order."""
    server, client_spans, _sim = populated_server
    import random
    rng = random.Random(5)

    def query_random():
        return cold_trace(server, rng.choice(client_spans).span_id)

    trace = benchmark(query_random)
    assert len(trace) == 10


def test_fig15_trace_query_warm(benchmark, populated_server):
    """Warm trace queries in random order: every component has been
    assembled before, so every timed call is a memo hit."""
    server, client_spans, _sim = populated_server
    import random
    rng = random.Random(5)
    assembler = warm_assembler(
        server, [span.span_id for span in client_spans])

    def query_random():
        return assembler.assemble(rng.choice(client_spans).span_id)

    trace = benchmark(query_random)
    assert len(trace) == 10


def test_fig15_trace_assembly_dearer_per_span(benchmark,
                                              populated_server):
    """The headline shape: per span returned, iterative trace assembly
    is orders of magnitude more expensive than a span-list scan, because
    it runs Algorithm 1's multi-round search (in the paper the gap is
    1 s vs 0.06 s with ClickHouse round trips; our store is in-process,
    so the honest comparison is per-unit-data cost).  The incremental
    trace-graph index is this PR's answer to that gap, so the table
    reports both trace paths: the reference reproduces the paper's
    ratio, the fast path shows what the index buys back.  Its row is a
    cold query (the first ask of each component); the memo-hit row is a
    repeat ask.
    """
    server, client_spans, sim = populated_server
    rounds = 20
    probes = [span.span_id for span in client_spans[:rounds]]
    span_list_size = len(server.span_list(0.0, sim.now))
    trace_size = len(assemble_iterative(server.store, probes[0]))

    def span_lists():
        for _ in range(rounds):
            server.span_list(0.0, sim.now)
        return rounds

    def iterative_traces():
        for span_id in probes:
            assemble_iterative(server.store, span_id)
        return rounds

    def cold_traces():
        assembler = TraceAssembler(server.store)
        for span_id in probes:
            assert len(assembler.assemble(span_id)) == trace_size
        return rounds

    warm = warm_assembler(server, probes)

    def warm_traces():
        for span_id in probes:
            warm.assemble(span_id)
        return rounds

    def searches():
        for span_id in probes:
            collect_iterative(server.store, span_id)
        return rounds

    def lookups():
        for span_id in probes:
            server.store.component_spans(span_id)
        return rounds

    span_list_delay = best_per_call(span_lists)
    trace_delay = best_per_call(iterative_traces)
    fast_delay = best_per_call(cold_traces)
    warm_delay = best_per_call(warm_traces)
    # Both trace paths end in the same parent assignment, which dominates
    # a 10-span trace; what the index replaces is the search before it.
    search_delay = best_per_call(searches)
    lookup_delay = best_per_call(lookups)
    per_span_list = span_list_delay / span_list_size
    per_span_trace = trace_delay / trace_size
    per_span_fast = fast_delay / trace_size
    print_table(
        "Fig 15: query delay",
        ["query", "delay (ms)", "spans", "us/span", "paper delay"],
        [("span list", f"{span_list_delay * 1000:.3f}",
          span_list_size, f"{per_span_list * 1e6:.2f}", "~60 ms"),
         ("trace (iterative ref)", f"{trace_delay * 1000:.3f}",
          trace_size, f"{per_span_trace * 1e6:.2f}", "~1000 ms"),
         ("trace (graph index, cold)", f"{fast_delay * 1000:.3f}",
          trace_size, f"{per_span_fast * 1e6:.2f}", "—"),
         ("trace (graph index, memo hit)", f"{warm_delay * 1000:.3f}",
          trace_size, f"{warm_delay / trace_size * 1e6:.2f}", "—"),
         ("search (iterative ref)", f"{search_delay * 1000:.3f}",
          trace_size, f"{search_delay / trace_size * 1e6:.2f}", "—"),
         ("search (graph index)", f"{lookup_delay * 1000:.3f}",
          trace_size, f"{lookup_delay / trace_size * 1e6:.2f}", "—")])
    assert per_span_trace > 10 * per_span_list
    assert fast_delay < trace_delay
    assert lookup_delay < search_delay
    benchmark.pedantic(
        lambda: server.trace(client_spans[0].span_id),
        rounds=5, iterations=1)


def test_fig15_algorithm1_converges_quickly(benchmark, populated_server,
                                            monkeypatch):
    """The iterative reference issues several store searches, stopping
    well under the 30-iteration default; the production path never
    touches the postings at all and returns the same spans."""
    server, client_spans, _sim = populated_server
    start_id = client_spans[0].span_id
    found = benchmark.pedantic(
        lambda: collect_iterative(server.store, start_id),
        rounds=1, iterations=1)
    assert 2 <= found.rounds <= 6
    assert found.lookups >= 2
    reference = {span.span_id for span in found.spans}
    asked = []
    monkeypatch.setattr(server.store, "carriers", asked.append)
    fast = {span.span_id for span in server.trace(start_id)}
    assert not asked
    assert fast == reference


def test_fig15_continuous_pipeline_operating_point(benchmark,
                                                   populated_server):
    """The push path's answer to Fig 15: with continuous assembly, the
    trace is already finished when the user asks for it, so the
    query-time delay collapses to a map lookup.  The operating point we
    report: at the largest store size this benchmark builds, the
    ingest-to-finished *retrieval* delay must be at most 10% of the
    pull path's trace-query delay — and the table also prices the
    amortized per-span push cost so the comparison stays honest about
    where the work went (it moved to ingest, it did not vanish).
    """
    server, client_spans, sim = populated_server
    spans = list(server.store.all_spans())
    spans.sort(key=lambda span: (span.end_time, span.span_id))

    # Rebuild the same population on a streaming store, pricing the
    # push path's incremental work as it would run at ingest time.
    store = SpanStore()
    assembler = ContinuousAssembler(store)
    push_cost = 0.0
    batch_size = 256
    for start in range(0, len(spans), batch_size):
        batch = spans[start:start + batch_size]
        store.insert_many(batch)
        clock = time.perf_counter()
        assembler.on_spans(batch, batch[-1].end_time)
        assembler.finalize_pending()
        push_cost += time.perf_counter() - clock
    clock = time.perf_counter()
    assembler.drain(sim.now + 10.0)
    push_cost += time.perf_counter() - clock
    finished = assembler.finished
    assert sum(len(record.trace) for record in finished) == len(spans)

    # The user-facing retrieval structure the push path maintains.
    trace_of = {}
    for record in finished:
        for span in record.trace:
            trace_of[span.span_id] = record
    rounds = 200
    probes = [span.span_id for span in client_spans[:rounds]]
    trace = None

    def lookups():
        nonlocal trace
        for span_id in probes:
            trace = trace_of[span_id].trace
        return len(probes)

    def cold_pulls():
        assembler = TraceAssembler(server.store)
        for span_id in probes:
            assembler.assemble(span_id)
        return len(probes)

    warm = warm_assembler(server, probes)

    def warm_pulls():
        for span_id in probes:
            warm.assemble(span_id)
        return len(probes)

    continuous_delay = best_per_call(lookups)
    assert len(trace) == 10
    # Pull-path comparison at the same (largest) store size: cold, each
    # component's first ask, and warm, a memo hit.
    pull_delay = best_per_call(cold_pulls)
    warm_delay = best_per_call(warm_pulls)

    per_span_push = push_cost / len(spans)
    print_table(
        "Fig 15 operating point: pull query vs continuous pipeline",
        ["path", "per-trace delay (us)", "notes"],
        [("pull: trace query (graph index)", f"{pull_delay * 1e6:.2f}",
          "cold: assembles at query time"),
         ("pull: trace query (memo hit)", f"{warm_delay * 1e6:.2f}",
          "parents assigned at an earlier ask"),
         ("push: finished-trace lookup", f"{continuous_delay * 1e6:.3f}",
          "assembled before the query"),
         ("push: ingest-side cost", f"{push_cost * 1e6 / len(finished):.2f}",
          f"amortized, {per_span_push * 1e6:.2f} us/span")])
    assert continuous_delay <= 0.10 * pull_delay
    benchmark.pedantic(lambda: trace_of[probes[0]].trace,
                       rounds=5, iterations=1)
