"""DeepFlow Server facade: ingest, enrichment, and the query API.

Ingestion applies the smart-encoding enrichment: spans arrive from agents
carrying only ``(vpc, ip)`` tags; the server joins the registered resource
tags (Figure 8 step ⑦) before storing.  Self-defined labels are joined at
query time (step ⑧) by :meth:`DeepFlowServer.trace`.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import Callable, Optional

from repro.core.export import OtlpStreamExporter, metrics_to_otlp_json
from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, SpanKind, SpanSide, Trace
from repro.server.assembler import TraceAssembler
from repro.server.metricsdb import MetricsDatabase
from repro.server.sharding import ShardedSpanStore
from repro.server.streaming import ContinuousAssembler
from repro.server.tags import TagRegistry

#: A span's whole state in constructor order, read in one C call: a
#: labelled copy is ``Span(*_SPAN_STATE(span))``, without
#: ``dataclasses.replace``'s per-field introspection.
_SPAN_STATE = attrgetter(*(field.name for field in fields(Span)))


class DeepFlowServer:
    """Cluster-level collector, store, and query engine.

    The span store is one :class:`repro.server.sharding.ShardedSpanStore`
    of 60 s time segments that keeps the newest segment and the *shards*
    before it (one by default): ``trace()`` reads one component out of
    its forest, and a span list concatenates the segments it overlaps.
    Tenant labels (``ingest_spans``) and cluster labels (``new_agent``)
    thread through the span-list filters so one server instance models
    DeepFlow's multi-cluster, multi-tenant deployment.
    """

    def __init__(self, shards: int = 1, streaming: bool = False):
        self.pipeline_metrics = PipelineMetrics()
        self.store = ShardedSpanStore(shards, metrics=self.pipeline_metrics)
        self.tags = TagRegistry()
        self.metrics = MetricsDatabase()
        self.assembler = TraceAssembler(self.store)
        self._next_agent_index = 1
        self.ingested_spans = 0
        self._m_ingested = self.pipeline_metrics.counter(
            "server.spans_ingested", "spans accepted by ingest")
        self._m_batches = self.pipeline_metrics.counter(
            "server.ingest_batches", "ingest calls")
        self._h_batch = self.pipeline_metrics.histogram(
            "server.ingest_batch_spans",
            bounds=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0),
            description="spans per ingest batch")
        #: Push-path assembler; None until streaming is enabled.
        self.streaming: Optional[ContinuousAssembler] = None
        if streaming:
            self.enable_streaming()

    # -- agent registration ----------------------------------------------

    def register_agent(self) -> int:
        """Hand out a unique agent index (id-allocation prefix)."""
        index = self._next_agent_index
        self._next_agent_index += 1
        return index

    def new_agent(self, kernel, node=None, config=None, cluster=None):
        """Convenience: create an agent wired to this server.

        *cluster* labels every resource the agent registers (and hence,
        via enrichment, every span from its node) with a ``cluster``
        tag, so multi-cluster deployments stay filterable after their
        spans merge into shared traces.
        """
        from repro.agent.agent import DeepFlowAgent
        return DeepFlowAgent(kernel, self.register_agent(), server=self,
                             node=node, config=config, cluster=cluster)

    # -- tag collection (Figure 8 ①–③) ------------------------------------

    def register_resource_tags(self, vpc: str, ip: str,
                               tags: dict[str, str]) -> None:
        """Register resource tags for (vpc, ip)."""
        self.tags.register(vpc, ip, tags)

    # -- continuous pipeline ----------------------------------------------

    def enable_streaming(self, *, exporter=None,
                         **assembler_kwargs) -> ContinuousAssembler:
        """Turn on the push path: arm the store's component-event sink
        and attach a :class:`ContinuousAssembler` fed by every later
        :meth:`ingest_spans` call.  Finished traces flow to *exporter*
        (an :class:`repro.core.export.OtlpStreamExporter` by default).
        Idempotent — returns the existing assembler if already enabled.
        """
        if self.streaming is not None:
            return self.streaming
        if exporter is None:
            exporter = OtlpStreamExporter()
        self.streaming = ContinuousAssembler(
            self.store, metrics=self.pipeline_metrics,
            exporter=exporter, **assembler_kwargs)
        return self.streaming

    def pipeline_stats(self) -> dict:
        """Self-metrics snapshot of every pipeline stage wired to this
        server: agent dispatch, ingest, store retention, continuous
        assembly, and export."""
        stats = {
            "metrics": self.pipeline_metrics.snapshot(),
            "ingested_spans": self.ingested_spans,
            "shards": self.store.shard_stats(),
        }
        if self.streaming is not None:
            stats["streaming"] = self.streaming.stats()
            if self.streaming.exporter is not None:
                stats["export"] = self.streaming.exporter.stats()
        return stats

    def pipeline_metrics_otlp(self, now: float) -> dict:
        """The same self-metrics in OTLP ``resourceMetrics`` form."""
        return metrics_to_otlp_json(self.pipeline_metrics, now)

    # -- ingestion ---------------------------------------------------------

    def ingest_spans(self, spans: list[Span],
                     tenant: Optional[str] = None,
                     now: Optional[float] = None) -> None:
        """Enrich and store a batch of spans from an agent.

        The whole batch goes through :meth:`ShardedSpanStore.insert_many`,
        so the time runs are merged once per shipment and the union-find
        merges coalesce, instead of paying per-span index maintenance.
        When *tenant* is given the store stamps the label into each
        span's tags.  Re-shipped spans (an id already stored) and spans
        past the retention horizon are skipped and counted by the store
        (``store.duplicate_spans``, ``store.late_spans``); the rest of
        the batch is stored, counted as ingested and pushed.

        With streaming enabled the accepted spans also push through the
        continuous assembler at sim time *now* (agents pass their
        clock; when absent, the batch's latest span end stands in).
        """
        for span in spans:
            self._enrich(span)
        spans = self.store.insert_many(spans, tenant, now)
        self.ingested_spans += len(spans)
        self._m_ingested.inc(len(spans))
        self._m_batches.inc()
        self._h_batch.observe(len(spans))
        streaming = self.streaming
        if streaming is not None and spans:
            if now is None:
                now = max(span.end_time for span in spans)
            streaming.on_spans(spans, now)
            streaming.finalize_pending()

    def _enrich(self, span: Span) -> None:
        """Smart-encoding step ⑦: (vpc, ip) → resource tags in Int form.

        The store keeps the decoded dict for inspectability.  The Int
        round-trip is still what produces it, once per endpoint per
        registration (:meth:`TagRegistry.decoded_resource_tags`), so a
        span costs one lookup and a copy of the entries into its own
        ``tags``.
        """
        tags = span.tags
        vpc = tags.get("vpc")
        ip = tags.get("ip")
        if vpc is not None and ip is not None:
            tags.update(self.tags.decoded_resource_tags(vpc, ip))

    def ingest_otel_span(self, span: Span,
                         now: Optional[float] = None) -> None:
        """Third-party span integration (§3.3.2): a one-span ingest."""
        if span.kind is not SpanKind.APP:
            raise ValueError("third-party spans must have kind APP")
        self.ingest_spans((span,), now=now)

    # -- query API (what the front end calls) --------------------------------

    def span_list(self, start: float, end: float,
                  predicate: Optional[Callable[[Span], bool]] = None,
                  tenant: Optional[str] = None,
                  cluster: Optional[str] = None) -> list[Span]:
        """Spans with start time in [start, end).

        *tenant* / *cluster* restrict the result to spans carrying the
        matching label (labels are filters, not isolation walls: a trace
        crossing clusters still assembles whole)."""
        if tenant is None and cluster is None:
            return self.store.span_list(start, end, predicate)

        def labeled(span: Span) -> bool:
            tags = span.tags
            if tenant is not None and tags.get("tenant") != tenant:
                return False
            if cluster is not None and tags.get("cluster") != cluster:
                return False
            return predicate is None or predicate(span)

        return self.store.span_list(start, end, labeled)

    def find_spans(self, **criteria) -> list[Span]:
        """Linear search helper for examples/tests (not a hot path)."""
        out = []
        for span in self.store.all_spans():
            if all(getattr(span, key, None) == value
                   for key, value in criteria.items()):
                out.append(span)
        return out

    def trace(self, start_span_id: int) -> Trace:
        """Assemble the trace containing *start_span_id*: its component
        of the incremental association-graph index (near-O(α) lookup),
        parented and sorted.  Self-defined labels (step ⑧) are joined
        onto copies of the spans they label, never the stored spans."""
        trace = self.assembler.assemble(start_span_id)
        custom = self.tags.custom_tag_table()
        if not custom:
            return trace
        joined = []
        for span in trace.spans:
            tags = span.tags
            labels = custom.get((tags.get("vpc"), tags.get("ip")))
            if labels:
                span = Span(*_SPAN_STATE(span))
                span.tags = {**tags, **labels}
            joined.append(span)
        return Trace._from_ordered(joined)

    def correlated_metrics(self, trace: Trace,
                           names: Optional[list[str]] = None) -> dict:
        """Metrics related to each span of a trace, via shared tags."""
        result = {}
        for span in trace:
            series = self.metrics.correlate_span(span, names=names)
            if series:
                result[span.span_id] = series
        return result

    # -- tag-grouped analytics (§3.4) ------------------------------------

    def latency_by_tag(self, tag_key: str, *,
                       side: SpanSide = SpanSide.SERVER,
                       start: float = 0.0,
                       end: float = float("inf")) -> dict[str, dict]:
        """Latency statistics grouped by a resource tag.

        The §3.4 workflow: "users can use these tags to immediately
        determine the locations of the problems, such as in which pod
        the invocations are time-consuming".
        """
        groups: dict[str, list[float]] = {}
        for span in self.store.span_list(start, end):
            if span.side is not side:
                continue
            tag_value = span.tags.get(tag_key)
            if tag_value is None:
                continue
            groups.setdefault(tag_value, []).append(span.duration)
        result = {}
        for tag_value, durations in groups.items():
            ordered = sorted(durations)
            p95_index = min(len(ordered) - 1, int(0.95 * len(ordered)))
            result[tag_value] = {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "p95": ordered[p95_index],
            }
        return result

    def error_rate_by_tag(self, tag_key: str, *,
                          start: float = 0.0,
                          end: float = float("inf")) -> dict[str, float]:
        """Fraction of error spans per tag value (any side)."""
        totals: dict[str, int] = {}
        errors: dict[str, int] = {}
        for span in self.store.span_list(start, end):
            tag_value = span.tags.get(tag_key)
            if tag_value is None:
                continue
            totals[tag_value] = totals.get(tag_value, 0) + 1
            if span.is_error:
                errors[tag_value] = errors.get(tag_value, 0) + 1
        return {tag_value: errors.get(tag_value, 0) / count
                for tag_value, count in totals.items()}

    # -- convenience -----------------------------------------------------

    def slowest_span(self, side: SpanSide = SpanSide.CLIENT,
                     start: float = 0.0,
                     end: float = float("inf")) -> Optional[Span]:
        """The user's typical starting point: a time-consuming invocation."""
        spans = [span for span in self.store.span_list(start, end)
                 if span.side is side]
        if not spans:
            return None
        return max(spans, key=lambda span: span.duration)
