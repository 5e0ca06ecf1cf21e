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
"""

import time

import pytest

from benchmarks.conftest import deploy_deepflow, flush_all, print_table, \
    run_wrk2

from repro.apps import springboot
from repro.core.span import SpanSide
from repro.server.database import SpanStore
from repro.server.reference import assemble_iterative, collect_iterative
from repro.server.streaming import ContinuousAssembler
from repro.sim.engine import Simulator

REQUESTS_TARGET = 400


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
    server, client_spans, _sim = populated_server
    iterator = iter(client_spans * 1000)

    def query_next():
        return server.trace(next(iterator).span_id)

    trace = benchmark(query_next)
    assert len(trace) == 10


def test_fig15_trace_query_random(benchmark, populated_server):
    server, client_spans, _sim = populated_server
    import random
    rng = random.Random(5)

    def query_random():
        return server.trace(rng.choice(client_spans).span_id)

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
    ratio, the fast path shows what the index buys back.
    """
    server, client_spans, sim = populated_server
    rounds = 20
    start = time.perf_counter()
    span_list_size = 0
    for _ in range(rounds):
        span_list_size = len(server.span_list(0.0, sim.now))
    span_list_delay = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    trace_size = 0
    for span in client_spans[:rounds]:
        trace_size = len(assemble_iterative(server.store, span.span_id))
    trace_delay = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for span in client_spans[:rounds]:
        assert len(server.trace(span.span_id)) == trace_size
    fast_delay = (time.perf_counter() - start) / rounds
    # Both trace paths end in the same parent assignment, which dominates
    # a 10-span trace; what the index replaces is the search before it.
    start = time.perf_counter()
    for span in client_spans[:rounds]:
        collect_iterative(server.store, span.span_id)
    search_delay = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for span in client_spans[:rounds]:
        server.store.component_spans(span.span_id)
    lookup_delay = (time.perf_counter() - start) / rounds
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
         ("trace (graph index)", f"{fast_delay * 1000:.3f}",
          trace_size, f"{per_span_fast * 1e6:.2f}", "—"),
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
    clock = time.perf_counter()
    for span_id in probes:
        trace = trace_of[span_id].trace
    continuous_delay = (time.perf_counter() - clock) / len(probes)
    assert len(trace) == 10

    # Pull-path comparison at the same (largest) store size.
    clock = time.perf_counter()
    for span_id in probes:
        server.trace(span_id)
    pull_delay = (time.perf_counter() - clock) / len(probes)

    per_span_push = push_cost / len(spans)
    print_table(
        "Fig 15 operating point: pull query vs continuous pipeline",
        ["path", "per-trace delay (us)", "notes"],
        [("pull: trace query (graph index)", f"{pull_delay * 1e6:.2f}",
          "assembles at query time"),
         ("push: finished-trace lookup", f"{continuous_delay * 1e6:.3f}",
          "assembled before the query"),
         ("push: ingest-side cost", f"{push_cost * 1e6 / len(finished):.2f}",
          f"amortized, {per_span_push * 1e6:.2f} us/span")])
    assert continuous_delay <= 0.10 * pull_delay
    benchmark.pedantic(lambda: trace_of[probes[0]].trace,
                       rounds=5, iterations=1)
