"""Continuous pipeline: ingest → assembly → OTLP export, deterministically.

The whole push chain — span-store insert, union-find link events,
live-trace maintenance, parent assignment on retirement, OTLP/JSON
encoding of every finished trace — on a synthetic steady-state stream.
Asserted here are the figures that do not depend on host speed: span,
trace and merge counts, that traces retire while ingest runs, and the
sim-time ingest-to-finished latency (the ``stream.finish_lag_s``
histogram), a property of the lifecycle parameters.  Throughput is gated
end to end by ``server_replay`` in ``benchmarks/e2e``; pytest-benchmark
reports this workload's time without judging it.
"""

from benchmarks.conftest import print_table

from repro.core.export import OtlpStreamExporter
from repro.core.span import Span, SpanKind, SpanSide
from repro.server.server import DeepFlowServer

SPAN_COUNT = 50_000
BATCH = 512


def make_streaming_spans(count: int) -> list[Span]:
    """Groups of four spans per trace; the group's first span is a
    server-side entry that encloses the rest, so finished traces retire
    through the root-complete heuristic while ingest is still running
    (the continuous pipeline's steady state, not a terminal drain)."""
    spans = []
    for index in range(count):
        group = index // 4
        pos = index % 4
        group_t = group * 4e-5
        start = group_t + pos * 1e-6
        end = group_t + (2e-3 if pos == 0 else 1e-3 + pos * 1e-6)
        spans.append(Span(
            span_id=index + 1, kind=SpanKind.SYSCALL,
            side=SpanSide.SERVER if pos == 0 else SpanSide.CLIENT,
            start_time=start, end_time=end,
            host="n1", process_name=f"svc-{group % 7}",
            protocol="http", operation="GET", resource="/api",
            status="ok", status_code=200,
            systrace_id=group))
    return spans


def run_streaming_workload(spans: list[Span]) -> dict:
    """One pass of the full push path; returns its deterministic figures."""
    server = DeepFlowServer()
    exporter = OtlpStreamExporter(keep_payloads=False)
    server.enable_streaming(exporter=exporter)
    for start in range(0, len(spans), BATCH):
        batch = spans[start:start + BATCH]
        server.ingest_spans(batch, now=batch[-1].end_time)
    end_time = spans[-1].end_time
    server.streaming.tick(end_time + 0.06)  # root-grace finish
    server.streaming.drain(end_time + 0.06)  # stragglers
    assert exporter.exported_spans == len(spans)
    lag = server.pipeline_metrics.get("stream.finish_lag_s")
    return {
        "spans": len(spans),
        "traces": exporter.exported_traces,
        "p99_finish_lag_ms": round(lag.percentile(0.99) * 1e3, 1),
        "mean_finish_lag_ms": round(lag.mean() * 1e3, 2),
        "merges": server.streaming.stats()["merges"],
        "forced_finishes": sum(
            1 for record in server.streaming.finished
            if record.reason == "forced"),
    }


def test_streaming_retires_traces_while_ingesting(benchmark):
    spans = make_streaming_spans(SPAN_COUNT)
    result = benchmark.pedantic(lambda: run_streaming_workload(spans),
                                rounds=1, iterations=1)
    print_table(
        "Continuous pipeline: ingest -> assembly -> OTLP export",
        ["metric", "value"],
        [("spans", result["spans"]),
         ("finished traces", result["traces"]),
         ("p99 ingest-to-finished (sim ms)",
          result["p99_finish_lag_ms"]),
         ("mean ingest-to-finished (sim ms)",
          result["mean_finish_lag_ms"]),
         ("forced finishes", result["forced_finishes"])])
    assert result["traces"] == SPAN_COUNT // 4
    # Steady state: traces retire while ingest runs, not at the drain.
    assert result["forced_finishes"] < result["traces"] * 0.05
    assert result["merges"] == result["spans"] - result["traces"]


def test_finish_lag_is_deterministic_sim_time():
    """The latency figure is a lifecycle property: two runs on the same
    workload report identical histograms regardless of host speed."""
    spans = make_streaming_spans(10_000)
    first = run_streaming_workload(spans)
    second = run_streaming_workload(spans)
    assert first == second
