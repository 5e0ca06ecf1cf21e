"""Scale stress: large generated topologies through the full pipeline.

The paper motivates DeepFlow with service graphs of up to 1,500
components [89]; this bench pushes a generated multi-layer graph
(tens of services, deep fan-out traces) through agents, store, and
Algorithm 1, reporting span volume and assembly time at scale.

The store benches check the 50k-span store's postings and price the
incremental trace-graph index against the iterative Algorithm 1
reference (:mod:`repro.server.reference`) as a same-run ratio.
"""

import time

from benchmarks.conftest import deploy_deepflow, flush_all, print_table, \
    run_wrk2

from repro.apps.servicegen import generate
from repro.server.index import association_keys
from repro.server.reference import collect_iterative
from repro.sim.engine import Simulator


def test_scale_generated_topology(benchmark):
    def run():
        sim = Simulator(seed=401)
        app = generate(sim, layers=4, width=6, fanout=3, node_count=6)
        server, agents = deploy_deepflow(app.cluster)
        report = run_wrk2(sim, app.pods["loadgen"], app.entry_ip,
                          app.entry_port, rate=20, duration=0.5,
                          connections=4)
        flush_all(sim, agents)
        server.store.flush()
        start_clock = time.perf_counter()
        trace = server.trace(server.slowest_span().span_id)
        assembly_seconds = time.perf_counter() - start_clock
        return app, server, report, trace, assembly_seconds

    app, server, report, trace, assembly_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1)
    expected_spans = 2 * app.sessions_per_request()
    print_table(
        "Scale: generated 4-layer topology",
        ["quantity", "value"],
        [("services deployed", len(app.services)),
         ("call edges", len(app.edges)),
         ("requests completed", report.completed),
         ("spans stored", len(server.store)),
         ("spans per trace", len(trace)),
         ("trace assembly time", f"{assembly_seconds * 1e3:.2f} ms")])
    assert report.errors == 0
    assert len(app.services) >= 16
    assert len(trace) == expected_spans
    assert len(trace.roots()) == 1
    assert len(server.store) == report.completed * expected_spans
    # The index answers without iterating; the reference must agree.
    reference = collect_iterative(server.store, trace.spans[0].span_id)
    assert ({s.span_id for s in reference.spans}
            == {s.span_id for s in trace})


def test_scale_store_handles_many_spans(benchmark):
    """Insert 50k synthetic spans and look one span's keys up in the
    committed postings (timed by pytest-benchmark, not judged)."""
    from repro.core.ids import IdAllocator
    from repro.core.span import Span, SpanKind, SpanSide
    from repro.server.database import SpanStore

    ids = IdAllocator(7)
    store = SpanStore()
    spans = []
    for index in range(50_000):
        spans.append(Span(
            span_id=ids.next_id(), kind=SpanKind.SYSCALL,
            side=SpanSide.CLIENT if index % 2 else SpanSide.SERVER,
            start_time=index * 1e-4, end_time=index * 1e-4 + 1e-3,
            systrace_id=index // 4,
            flow_key=("flow", index % 977),
            req_tcp_seq=index,
        ))
    store.insert_many(spans)
    store.flush()
    keys = association_keys(spans[1234])

    result = benchmark(lambda: store.carriers(keys))
    assert len(store) == 50_000
    # The four spans sharing the systrace id; the flow-seq is its own.
    assert result == {span.span_id for span in spans[1232:1236]}


def _chain_store(groups: int, chain: int):
    """A store of *groups* chain-shaped trace components of *chain* spans.

    Adjacent spans alternate systrace and X-Request-ID pair links, so
    each component is a path graph: the worst case for the iterative
    reference (the frontier advances one hop per round) while the
    union-find answers it in one lookup.  ``chain`` stays well under the
    30-iteration default so the reference still converges and the two
    paths return identical span sets.
    """
    from repro.core.span import Span, SpanKind, SpanSide
    from repro.server.database import SpanStore

    store = SpanStore()
    spans = []
    span_id = 0
    for group in range(groups):
        for pos in range(chain):
            spans.append(Span(
                span_id=span_id, kind=SpanKind.SYSCALL,
                side=SpanSide.CLIENT if pos % 2 else SpanSide.SERVER,
                start_time=span_id * 1e-4, end_time=span_id * 1e-4 + 1e-3,
                # pairs (0,1), (2,3), ... share a systrace id
                systrace_id=group * chain + pos // 2,
                # pairs (1,2), (3,4), ... share an X-Request-ID
                x_request_id=(f"x-{group}-{(pos + 1) // 2}"
                              if pos > 0 else None),
            ))
            span_id += 1
    store.insert_many(spans)
    store.flush()
    return store, spans


def test_scale_fast_path_vs_reference(benchmark):
    """Algorithm 1 on a 50k-span store: incremental index vs iteration.

    The acceptance bar for the index redesign: on chain-shaped traces
    the component lookup must beat the iterative reference by >= 10x,
    while returning identical span sets.
    """
    chain = 24
    store, spans = _chain_store(groups=50_000 // chain + 1, chain=chain)
    starts = [span.span_id for span in spans[::chain][:200]]

    for start in starts[:5]:  # equivalence spot-check before timing
        fast = {s.span_id for s in store.component_spans(start)}
        reference = {s.span_id
                     for s in collect_iterative(store, start).spans}
        assert fast == reference

    # Each side is the best of three passes: one pass that a busy host
    # slows must not decide the ratio.
    reference_seconds = fast_seconds = float("inf")
    for _ in range(3):
        clock = time.perf_counter()
        for start in starts:
            found = collect_iterative(store, start)
        reference_seconds = min(reference_seconds,
                                (time.perf_counter() - clock) / len(starts))
    iterations = found.rounds
    for _ in range(3):
        clock = time.perf_counter()
        for start in starts:
            store.component_spans(start)
        fast_seconds = min(fast_seconds,
                           (time.perf_counter() - clock) / len(starts))
    speedup = reference_seconds / fast_seconds

    benchmark.pedantic(lambda: store.component_spans(starts[0]),
                       rounds=5, iterations=10)
    print_table(
        "Scale: Algorithm 1 fast path vs iterative reference "
        f"({len(store):,} spans, {chain}-span chains)",
        ["path", "per query", "notes"],
        [("iterative reference", f"{reference_seconds * 1e6:,.0f} us",
          f"{iterations} iterations"),
         ("trace-graph index", f"{fast_seconds * 1e6:,.0f} us",
          "component lookup"),
         ("speedup", f"{speedup:,.1f}x", "acceptance: >= 10x")])
    assert speedup >= 10
