"""Push-path (continuous) trace assembly, lifecycle, and self-metrics.

Covers the component-event plumbing (store union-find → assembler),
the live-trace retirement rule (idle timeout, root complete after a
grace, across ingest batches), equality with the pull path on
a sharded store, the watchdog's arrival-time latency budgets with
cooldown dedup, and the pipeline_stats()/OTLP-metrics surface.
"""

import pytest

from repro.analysis.watchdog import AnomalyWatchdog
from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import HttpService, Response
from repro.core.export import OtlpStreamExporter, decode_otlp_json, \
    decode_otlp_metrics
from repro.core.span import Span, SpanKind, SpanSide
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.database import SpanStore
from repro.server.server import DeepFlowServer
from repro.server.sharding import ShardedSpanStore
from repro.server.streaming import (
    FINISH_AFTER,
    REASON_FORCED,
    REASON_IDLE,
    REASON_ROOT_COMPLETE,
    ROOT_GRACE,
    ContinuousAssembler,
)
from repro.sim.engine import Simulator


def _span(span_id, start, end, *, systrace=None, xreq=None,
          process="svc", status="", host="n1"):
    return Span(span_id=span_id, kind=SpanKind.SYSCALL,
                side=SpanSide.CLIENT if span_id % 2 else SpanSide.SERVER,
                start_time=start, end_time=end, host=host,
                process_name=process, protocol="http",
                operation="GET", resource="/", status=status,
                systrace_id=systrace, x_request_id=xreq)


class TestComponentEvents:
    """The union-find's link events drain through the store facade."""

    def test_store_emits_link_pairs_once(self):
        store = SpanStore()
        store.arm_component_events()
        store.insert_many([_span(1, 0.0, 0.5, systrace=9),
                           _span(2, 0.1, 0.4, systrace=9)])
        events = store.take_component_events()
        assert events
        assert all(len(pair) == 2 for pair in events)
        ids = {i for pair in events for i in pair}
        assert ids == {1, 2}
        assert store.take_component_events() == []

    def test_unarmed_store_emits_nothing(self):
        store = SpanStore()
        store.insert_many([_span(1, 0.0, 0.5, systrace=9),
                           _span(2, 0.1, 0.4, systrace=9)])
        assert store.take_component_events() == []

    def test_sharded_store_emits_boundary_links(self):
        store = ShardedSpanStore(4, window=0.5)
        store.arm_component_events()
        # Same x_request_id, two time segments: the one posting map
        # links across the segment boundary like anywhere else.
        store.insert_many([_span(1, 0.1, 0.2, xreq="xr"),
                           _span(2, 0.8, 0.9, xreq="xr")])
        events = store.take_component_events()
        assert events == [(2, 1)]
        assert store.shard_stats()["segments"] == [0, 1]


class TestLifecycle:
    @staticmethod
    def _push(assembler, store, spans, now):
        store.insert_many(spans)
        assembler.on_spans(spans, now)

    def _open_pair(self, assembler, store, now, *, root_complete):
        """Two linked spans; root span encloses the other iff
        *root_complete*."""
        root_end = 1.0 if root_complete else 0.5
        spans = [_span(1, 0.0, root_end, systrace=3),
                 _span(2, 0.1, 0.9, systrace=3)]
        self._push(assembler, store, spans, now)
        return spans

    def test_idle_timeout_finishes_incomplete_trace(self):
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        self._open_pair(assembler, store, 1.0, root_complete=False)
        assert assembler.stats()["open_traces"] == 1
        records = assembler.tick(1.5)       # idle 0.5 < FINISH_AFTER 1.0
        assert records == []
        records = assembler.tick(2.0)       # idle 1.0 hits the timeout
        assert len(records) == 1
        assert records[0].reason == REASON_IDLE
        assert len(records[0].trace) == 2
        assert assembler.stats()["open_traces"] == 0

    def test_root_complete_finishes_after_grace(self):
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        self._open_pair(assembler, store, 1.0, root_complete=True)
        records = assembler.tick(1.06)      # idle 0.06 >= ROOT_GRACE
        assert len(records) == 1
        assert records[0].reason == REASON_ROOT_COMPLETE
        assert records[0].assembly_lag == pytest.approx(0.06)

    def test_child_in_a_later_batch_undoes_root_complete(self):
        """A root-complete singleton joined later by a child that ends
        after it is no longer root complete: it outlives ROOT_GRACE and
        retires on the idle timeout."""
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        self._push(assembler, store, [_span(1, 0.0, 0.5, systrace=3)], 1.0)
        self._push(assembler, store, [_span(2, 0.1, 0.9, systrace=3)], 1.5)
        assert assembler.stats()["merges"] == 1
        assert assembler.tick(1.5 + 2 * ROOT_GRACE) == []
        assert assembler.stats()["open_traces"] == 1
        records = assembler.tick(1.5 + FINISH_AFTER)
        assert [record.reason for record in records] == [REASON_IDLE]
        assert {span.span_id for span in records[0].trace} == {1, 2}

    def test_enclosing_span_in_a_later_batch_becomes_the_root(self):
        """An incomplete pair joined later by an earlier-starting span
        that encloses both: that span is the root, so the trace retires
        root complete after ROOT_GRACE."""
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        self._push(assembler, store, [_span(1, 0.1, 0.5, systrace=3),
                                      _span(2, 0.2, 0.9, systrace=3)], 1.0)
        self._push(assembler, store, [_span(3, 0.0, 1.0, systrace=3)], 1.5)
        assert assembler.stats()["open_traces"] == 1
        records = assembler.tick(1.5 + 2 * ROOT_GRACE)
        assert [record.reason for record in records] == [
            REASON_ROOT_COMPLETE]
        assert {span.span_id for span in records[0].trace} == {1, 2, 3}
        assert records[0].assembly_lag == pytest.approx(2 * ROOT_GRACE)

    def test_drain_forces_everything_out(self):
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        self._open_pair(assembler, store, 1.0, root_complete=False)
        records = assembler.drain(1.01)
        assert [record.reason for record in records] == [REASON_FORCED]
        assert assembler.stats()["open_traces"] == 0
        assert assembler.stats()["tracked_spans"] == 0


class TestMergeAndParenting:
    def test_batch_chain_merges_into_one_trace(self):
        store = SpanStore()
        exporter = OtlpStreamExporter()
        assembler = ContinuousAssembler(store, exporter=exporter)
        spans = [_span(i, 0.01 * i, 0.01 * i + 0.3, systrace=5)
                 for i in range(1, 9)]
        store.insert_many(spans)
        assembler.on_spans(spans, 1.0)
        assert assembler.stats()["open_traces"] == 1
        assert assembler.stats()["merges"] == 7
        records = assembler.drain(1.0)
        assert len(records) == 1
        trace = records[0].trace
        assert {span.span_id for span in trace} == set(range(1, 9))
        # finalize ran the parent-rule table before export.
        assert len(trace.roots()) < len(trace)
        assert exporter.exported_traces == 1
        assert exporter.exported_spans == 8
        decode_otlp_json(exporter.trace_payloads[0])

    def test_merges_span_ingest_batches(self):
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        first = [_span(1, 0.0, 0.2, systrace=6)]
        second = [_span(2, 0.1, 0.3, systrace=6)]
        store.insert_many(first)
        assembler.on_spans(first, 0.0)
        store.insert_many(second)
        assembler.on_spans(second, 0.0)
        assert assembler.stats()["open_traces"] == 1
        records = assembler.drain(0.3)
        assert {s.span_id for s in records[0].trace} == {1, 2}


class TestShardedStreamingMatchesPullPath:
    def test_finished_components_equal_pull_traces(self):
        spans = []
        for index in range(800):
            group = index // 4
            xreq = None
            if group % 10 == 0 and group > 0 and index % 4 == 0:
                xreq = f"xr-{group - 1}"
            elif group % 10 == 9 and index % 4 == 3:
                xreq = f"xr-{group}"
            spans.append(_span(index + 1, index * 1e-3,
                               index * 1e-3 + 0.01,
                               systrace=group, xreq=xreq))
        server = DeepFlowServer(shards=4)
        server.enable_streaming()
        for start in range(0, len(spans), 128):
            # One sim instant for every batch: nothing goes idle, so
            # every trace stays live until the drain.
            server.ingest_spans(spans[start:start + 128], now=0.0)
        records = server.streaming.drain(spans[-1].end_time)
        assert records
        streamed = sum(len(record.trace) for record in records)
        assert streamed == len(spans)
        for record in records:
            probe = record.trace.spans[0].span_id
            pulled = {span.span_id for span in server.trace(probe)}
            assert {span.span_id
                    for span in record.trace} == pulled


@pytest.fixture(scope="module")
def chain_tape():
    """A recorded ``chain_fanout`` span tape of a few requests."""
    from benchmarks.e2e.workloads import SpanTape
    return SpanTape(1, 4, "/pull-push")


def _parents(spans):
    return {span.span_id: span.parent_id for span in spans}


class TestPullEqualsPushOnAChainTape:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_every_pull_trace_has_the_push_parents(self, chain_tape,
                                                   shards):
        """From any of its spans, ``trace()`` returns the push path's
        finished trace: same spans, same ``span_id → parent_id`` map."""
        push, _exporter = chain_tape.replay_push()
        finished = push.streaming.finished
        assert len(finished) == chain_tape.requests
        pull = DeepFlowServer(shards=shards)
        pull.tags = chain_tape.tags
        for batch, now in chain_tape.copies():
            pull.ingest_spans(batch, now=now)
        for record in finished:
            expected = _parents(record.trace)
            assert any(expected.values())
            for span_id in expected:
                assert _parents(pull.trace(span_id)) == expected

    @pytest.mark.parametrize("shards", [1, 4])
    def test_pull_before_retirement_keeps_labels_out_of_export(self,
                                                               shards):
        """A ``trace()`` while the trace is live must not leak query-time
        labels into what the push path later exports."""
        server = DeepFlowServer(shards=shards)
        server.enable_streaming()
        server.register_resource_tags("v", "10.0.0.1", {"version": "1.0"})
        spans = [_span(i, 0.01 * i, 0.3, systrace=4) for i in range(1, 5)]
        for span in spans:
            span.tags = {"vpc": "v", "ip": "10.0.0.1"}
        server.ingest_spans(spans, now=0.3)
        pulled = server.trace(1)
        assert all(s.tags["version"] == "1.0" for s in pulled)
        server.streaming.drain(1.0)
        payloads = server.streaming.exporter.trace_payloads
        assert len(payloads) == 1
        assert '"deepflow.tag.vpc"' in payloads[0]
        assert '"deepflow.tag.version"' not in payloads[0]
        assert all("version" not in s.tags for s in spans)


class TestWatchdogBudgets:
    def _server_with_watchdog(self, budget=0.01):
        server = DeepFlowServer()
        server.enable_streaming()
        watchdog = AnomalyWatchdog(server, cooldown=2.0)
        watchdog.watch_streaming(server.streaming, {"svc": budget})
        return server, watchdog

    def test_violation_alerts_at_arrival(self):
        server, watchdog = self._server_with_watchdog()
        server.ingest_spans([_span(1, 0.0, 0.5)], now=0.5)
        assert len(watchdog.alerts) == 1
        alert = watchdog.alerts[0]
        assert alert.kind == "latency-budget"
        assert alert.service == "svc"
        assert alert.exemplar_span_id == 1
        assert alert.value == pytest.approx(0.5)
        assert "budget" in alert.describe()

    def test_within_budget_stays_silent(self):
        server, watchdog = self._server_with_watchdog()
        server.ingest_spans([_span(1, 0.0, 0.005)], now=0.5)
        assert watchdog.alerts == []
        assert server.streaming.stats()["budget_violations"] == 0

    def test_cooldown_suppresses_repeats_and_counts_them(self):
        server, watchdog = self._server_with_watchdog()
        for index in range(1, 5):
            now = 0.5 * index     # 0.5, 1.0, 1.5, 2.0 — inside cooldown
            server.ingest_spans(
                [_span(index, now - 0.4, now)], now=now)
        assert len(watchdog.alerts) == 1
        key = ("latency-budget", "svc")
        assert watchdog.suppressed[key] == 3
        # Past the cooldown horizon the subject may alert again.
        server.ingest_spans([_span(9, 2.7, 3.1)], now=3.1)
        assert len(watchdog.alerts) == 2
        assert watchdog.suppressed[key] == 3
        # The hot path counted every violation, muted or not.
        assert server.streaming.stats()["budget_violations"] == 5

    def test_scan_alerts_obey_same_cooldown(self):
        server = DeepFlowServer()
        watchdog = AnomalyWatchdog(server, window=0.5, cooldown=2.0)
        spans = []
        span_id = 1
        for window in range(3):           # a persistent error condition
            for _ in range(6):
                start = window * 0.5 + 0.01 * span_id % 0.4
                spans.append(_span(span_id, start, start + 0.01,
                                   status="error"))
                span_id += 1
        # All spans server-side so the scanner sees them.
        for span in spans:
            span.side = SpanSide.SERVER
        server.ingest_spans(spans)
        new_alerts = watchdog.scan(1.5)
        bursts = [a for a in new_alerts if a.kind == "error-burst"]
        assert len(bursts) == 1
        assert bursts[0].window_start == 0.0
        assert watchdog.suppressed[("error-burst", "svc")] == 2


class TestLateLinks:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_link_into_a_retired_trace_is_counted(self, shards):
        """A span sharing a systrace id with a trace that already
        finished cannot join it: the push path exports it alone and
        counts the link, while the pull path returns both spans."""
        server = DeepFlowServer(shards=shards)
        stream = server.enable_streaming()
        server.ingest_spans([_span(1, 0.0, 0.5, systrace=7)], now=0.5)
        stream.tick(2.0)
        assert stream.stats()["late_links"] == 0
        server.ingest_spans([_span(2, 2.0, 2.1, systrace=7)], now=2.1)
        stream.drain(5.0)
        assert [[s.span_id for s in record.trace]
                for record in stream.finished] == [[1], [2]]
        assert stream.stats()["late_links"] == 1
        counters = server.pipeline_stats()["metrics"]["counters"]
        assert counters["stream.late_links"] == 1
        assert {s.span_id for s in server.trace(2)} == {1, 2}

    @pytest.mark.parametrize("shards", [1, 4])
    def test_stragglers_of_a_retired_trace_form_one_fragment(self, shards):
        """Two late spans sharing a retired trace's systrace id: the
        second links to the key's newest carrier, the first straggler,
        so both leave as one fragment and only one link is late."""
        server = DeepFlowServer(shards=shards)
        stream = server.enable_streaming()
        server.ingest_spans([_span(1, 0.0, 0.5, systrace=7)], now=0.5)
        stream.tick(2.0)
        server.ingest_spans([_span(2, 2.0, 2.1, systrace=7),
                             _span(3, 2.2, 2.3, systrace=7)], now=2.3)
        stream.drain(5.0)
        assert [sorted(s.span_id for s in record.trace)
                for record in stream.finished] == [[1], [2, 3]]
        assert stream.stats()["late_links"] == 1
        assert {s.span_id for s in server.trace(3)} == {1, 2, 3}


class TestRetentionUnderStreaming:
    @staticmethod
    def _run(shards):
        """One 4-span trace every 20 sim-s for 300 s, each retired long
        before the next, then a straggler linking into a retired trace
        that is still stored."""
        server = DeepFlowServer(shards=shards)
        stream = server.enable_streaming()
        for index in range(15):
            start = 20.0 * index
            server.ingest_spans(
                [_span(10 * index + i, start + 0.01 * i, start + 0.3,
                       systrace=index) for i in range(4)],
                now=start + 0.3)
            stream.tick(start + 5.0)
        server.ingest_spans([_span(999, 290.0, 290.1, systrace=13)],
                            now=290.1)
        stream.drain(400.0)
        return server

    def test_dropping_retired_traces_leaves_push_output_unchanged(self):
        dropping, keeping = self._run(1), self._run(8)
        assert dropping.store.shard_stats()["segments_dropped"] == 3
        assert keeping.store.shard_stats()["segments_dropped"] == 0
        assert (dropping.streaming.exporter.trace_payloads
                == keeping.streaming.exporter.trace_payloads)
        assert (dropping.streaming.stats()["late_links"]
                == keeping.streaming.stats()["late_links"] == 1)
        assert {s.span_id for s in dropping.trace(999)} == {
            130, 131, 132, 133, 999}


class TestPipelineStats:
    def test_stats_surface_every_stage(self):
        server = DeepFlowServer(shards=2)
        server.enable_streaming()
        spans = [_span(i, 0.01 * i, 0.01 * i + 0.1, systrace=i // 2)
                 for i in range(1, 21)]
        server.ingest_spans(spans, now=0.5)
        server.streaming.drain(0.5)
        server.streaming.finalize_pending()
        stats = server.pipeline_stats()
        assert stats["ingested_spans"] == 20
        metrics = stats["metrics"]
        assert metrics["counters"]["server.spans_ingested"] == 20
        assert metrics["counters"]["store.duplicate_spans"] == 0
        assert metrics["counters"]["store.segments_dropped"] == 0
        assert metrics["counters"]["stream.spans"] == 20
        assert metrics["histograms"]["server.ingest_batch_spans"][
            "count"] == 1
        assert stats["streaming"]["spans_seen"] == 20
        assert stats["streaming"]["open_traces"] == 0
        assert stats["export"]["exported_spans"] == 20
        assert "imbalance" in stats["shards"]

    def test_metrics_export_round_trips(self):
        server = DeepFlowServer()
        server.enable_streaming()
        server.ingest_spans([_span(1, 0.0, 0.1)], now=0.1)
        payload = server.pipeline_metrics_otlp(now=1.0)
        summary = decode_otlp_metrics(payload)
        assert summary["server.spans_ingested"]["value"] == 1
        assert summary["stream.spans"]["value"] == 1
        assert summary["stream.finish_lag_s"]["kind"] == "histogram"

    def test_enable_streaming_is_idempotent(self):
        server = DeepFlowServer()
        assembler = server.enable_streaming()
        assert server.enable_streaming() is assembler is server.streaming


class TestHeartbeatProcess:
    def test_run_finishes_traces_without_manual_ticks(self):
        sim = Simulator(seed=3)
        store = SpanStore()
        assembler = ContinuousAssembler(store)
        assembler.run(sim)
        spans = [_span(1, 0.0, 0.5, systrace=1),
                 _span(2, 0.1, 0.4, systrace=1)]
        store.insert_many(spans)
        assembler.on_spans(spans, 0.0)
        sim.run(until=3.0)
        assert assembler.stats()["finished"] == 1
        assert len(assembler.finished) == 1


class TestEndToEndWorld:
    @pytest.fixture(scope="class")
    def streamed_world(self):
        sim = Simulator(seed=123)
        builder = ClusterBuilder(node_count=2)
        lg_pod = builder.add_pod(0, "lg")
        svc_pod = builder.add_pod(1, "svc")
        cluster = builder.build()
        Network(sim, cluster)
        exporter = OtlpStreamExporter()
        server = DeepFlowServer()
        server.enable_streaming(exporter=exporter)
        watchdog = AnomalyWatchdog(server)
        watchdog.watch_streaming(server.streaming, {"svc": 1e-6})
        agents = []
        for node in cluster.nodes:
            agent = server.new_agent(node.kernel, node=node)
            agent.deploy()
            agent.start_polling(interval=0.01)
            agents.append(agent)
        service = HttpService("svc", svc_pod.node, 9000, pod=svc_pod,
                              service_time=0.001)

        @service.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        service.start()
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000,
                                  rate=10, duration=0.4, connections=1,
                                  pod=lg_pod, name="client")
        report = sim.run_process(generator.run())
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush()
        server.streaming.drain(sim.now + 10.0)
        for payload in exporter.trace_payloads:
            decode_otlp_json(payload)
        records = server.streaming.finished
        return server, exporter, watchdog, records, report

    def test_every_ingested_span_reaches_the_exporter(
            self, streamed_world):
        server, exporter, _watchdog, _records, report = streamed_world
        assert report.completed > 0
        assert server.ingested_spans > 0
        assert exporter.exported_spans == server.ingested_spans
        assert exporter.exported_traces == len(
            server.streaming.finished)

    def test_requests_assemble_into_cross_host_traces(
            self, streamed_world):
        _server, _exporter, _watchdog, records, report = streamed_world
        assert len(records) == report.completed
        for record in records:
            # The client's egress span and the service's ingress span
            # merged on the push path before retirement.
            sides = {span.side for span in record.trace}
            assert sides == {SpanSide.CLIENT, SpanSide.SERVER}
            processes = {span.process_name for span in record.trace}
            assert processes == {"client", "svc"}

    def test_exported_payloads_pass_schema_validation(
            self, streamed_world):
        _server, exporter, _w, _records, _report = streamed_world
        for payload in exporter.trace_payloads:
            decode_otlp_json(payload)

    def test_budget_sink_fired_from_live_traffic(self, streamed_world):
        _server, _exporter, watchdog, _records, _report = streamed_world
        kinds = {alert.kind for alert in watchdog.alerts}
        assert kinds == {"latency-budget"}
