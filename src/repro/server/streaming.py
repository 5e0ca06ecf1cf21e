"""Continuous (push-path) trace assembly.

The pull path answers "what is this span's trace?" at query time by
reading the union-find.  This module inverts the flow: span ingest
*pushes* into a :class:`ContinuousAssembler` that maintains one live
state per in-flight trace, driven by two signals —

* the batch of spans just inserted (each new span opens a singleton
  live trace), and
* the union-find's component-changed events
  (``ShardedSpanStore.take_component_events``): every shared-key link
  the key commit discovers, across time segments as within one,
  arrives as an ``(a, b)`` pair and merges span *a*'s live trace into
  span *b*'s — or, if *b*'s already retired, counts a
  ``stream.late_links`` and leaves *a*'s to be exported without it.

Live traces walk a sim-clock lifecycle::

    OPEN ──(idle ≥ quiescent_after)──> QUIESCENT ──(new span)──> OPEN
      │                                    │
      ├──(root complete, idle ≥ root_grace)┴──(idle ≥ finish_after)
      ▼
    FINISHED  →  build_trace → OTLP export

"Root complete" is the paper-shaped completion heuristic: the earliest
span of a component is its root candidate, and once its interval
encloses everything seen so far (``root.end_time >= max_end``) the
request has returned to its entry point — only a short grace for
trailing network spans is needed, not the full idle timeout.

Retirement is trace-atomic and memory-bounded: a finished trace's span
states are evicted together, and :meth:`ContinuousAssembler.
finalize_pending` (deliberately *outside* the hot ``on_spans`` call
graph — parent assignment sorts, which the hot-path checker forbids on
the ingest closure) runs the parent-rule table, wraps the spans in a
:class:`repro.core.span.Trace`, and hands the result to the OTLP
exporter.  Latency budgets are checked per arriving span and fire
through a duck-typed ``budget_sink`` callback, which
``repro.analysis.watchdog.AnomalyWatchdog.watch_streaming`` points at
itself — the server layer never imports the analysis layer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, Trace
from repro.server.assembler import build_trace

__all__ = [
    "ContinuousAssembler",
    "FinishedTrace",
    "LiveTrace",
    "OPEN",
    "QUIESCENT",
    "FINISHED",
]

#: Live-trace lifecycle states.
OPEN = "open"
QUIESCENT = "quiescent"
FINISHED = "finished"

#: Finish reasons recorded on retirement.
REASON_IDLE = "idle"
REASON_ROOT_COMPLETE = "root-complete"
REASON_FORCED = "forced"


class LiveTrace:
    """Mutable state of one in-flight trace component."""

    __slots__ = ("key", "spans", "state", "first_start", "max_end",
                 "root_span", "root_complete", "last_update",
                 "opened_at", "finished_at", "finish_reason")

    def __init__(self, span: Span, now: float) -> None:
        self.key = span.span_id       # stable handle: first member's id
        self.spans = [span]
        self.state = OPEN
        self.first_start = span.start_time
        self.max_end = span.end_time
        self.root_span = span
        self.root_complete = True     # a singleton encloses itself
        self.last_update = now
        self.opened_at = now
        self.finished_at = 0.0
        self.finish_reason = ""

    def __len__(self) -> int:
        return len(self.spans)


class FinishedTrace:
    """One retired, parent-assembled, exported trace."""

    __slots__ = ("trace", "key", "opened_at", "finished_at", "reason",
                 "assembly_lag")

    def __init__(self, trace: Trace, key: int, opened_at: float,
                 finished_at: float, reason: str,
                 assembly_lag: float) -> None:
        self.trace = trace
        self.key = key
        self.opened_at = opened_at
        self.finished_at = finished_at
        self.reason = reason
        #: sim seconds from the last span's arrival to retirement — the
        #: ingest-to-finished latency the streaming bench gates on.
        self.assembly_lag = assembly_lag


class ContinuousAssembler:
    """Push-path trace assembly over an armed span store.

    *store* is the server's one store (a plain :class:`repro.server.
    database.SpanStore` works too); construction arms its
    component-event sink.  Feed it with :meth:`on_spans` after each
    ingest batch and tick it with sim time (the server does both from
    ``ingest_spans``); read finished traces from :attr:`finished` or
    the exporter.
    """

    def __init__(self, store, *,
                 metrics: Optional[PipelineMetrics] = None,
                 exporter=None,
                 quiescent_after: float = 0.25,
                 finish_after: float = 1.0,
                 root_grace: float = 0.05,
                 sweep_interval: float = 0.05) -> None:
        if not 0 < root_grace <= quiescent_after <= finish_after:
            raise ValueError("need 0 < root_grace <= quiescent_after "
                             "<= finish_after")
        self.store = store
        store.arm_component_events()
        self.exporter = exporter
        self.quiescent_after = quiescent_after
        self.finish_after = finish_after
        self.root_grace = root_grace
        self.sweep_interval = sweep_interval
        #: span id → its live trace (evicted on retirement).
        self._state_of: dict[int, LiveTrace] = {}
        #: live-trace key → live trace.
        self._live: dict[int, LiveTrace] = {}
        #: retired but not yet parent-assembled/exported.
        self._pending: list[LiveTrace] = []
        #: reusable due-for-retirement buffer (no per-sweep allocation).
        self._due: list[LiveTrace] = []
        self._swept_at = float("-inf")
        self.finished: list[FinishedTrace] = []
        #: Latency budgets: service name → max span duration (seconds).
        #: Violations call ``budget_sink(span, budget, now)`` — the
        #: watchdog attaches here via ``set_budget_sink``.
        self.budget_sink: Optional[Callable] = None
        self._budgets: dict[str, float] = {}
        if metrics is None:
            metrics = PipelineMetrics()
        self.metrics = metrics
        self._m_spans = metrics.counter(
            "stream.spans", "spans pushed through the continuous path")
        self._m_merges = metrics.counter(
            "stream.merges", "live-trace merges from link events")
        self._m_finished = metrics.counter(
            "stream.finished", "traces retired and assembled")
        self._m_reopened = metrics.counter(
            "stream.reopened", "quiescent traces reopened by a span")
        self._m_quiesced = metrics.counter(
            "stream.quiesced", "open traces idled into quiescence")
        self._m_late = metrics.counter(
            "stream.late_links", "link events into a retired trace")
        self._m_budget = metrics.counter(
            "stream.budget_violations",
            "latency-budget violations seen at arrival")
        self._g_open = metrics.gauge(
            "stream.open_traces", "live traces currently tracked")
        self._h_lag = metrics.histogram(
            "stream.finish_lag_s",
            description="sim lag from last span arrival to retirement")

    # -- wiring -------------------------------------------------------------

    def set_budget_sink(self, sink: Optional[Callable],
                        budgets: dict[str, float]) -> None:
        """Attach per-service latency budgets and their alert callback
        (``sink(span, budget, now)``; the watchdog's entry point)."""
        self.budget_sink = sink
        self._budgets = dict(budgets)

    # -- hot path -----------------------------------------------------------

    def on_spans(self, spans: Iterable[Span], now: float) -> None:
        """Push one ingest batch at sim time *now*.

        Opens a singleton live trace per new span, checks latency
        budgets, merges along the union-find's drained link events, and
        periodically sweeps lifecycle transitions.  On the hot-seed
        closure: no per-span allocation beyond the LiveTrace itself.
        """
        state_of = self._state_of
        live = self._live
        budgets = self._budgets
        sink = self.budget_sink
        check_budgets = budgets and sink is not None
        count = 0
        violations = 0
        late = 0
        for span in spans:
            span_id = span.span_id
            count += 1
            if span_id in state_of:
                continue
            trace = LiveTrace(span, now)
            state_of[span_id] = trace
            live[span_id] = trace
            if check_budgets:
                budget = budgets.get(span.process_name)
                if budget is not None \
                        and span.end_time - span.start_time > budget:
                    violations += 1
                    sink(span, budget, now)
        for a, b in self.store.take_component_events():
            ta = state_of.get(a)
            if ta is None:
                continue
            tb = state_of.get(b)
            if tb is None:  # *b*'s trace already retired
                late += 1
            elif tb is not ta:
                self._merge(ta, tb)
        self._m_spans.inc(count)
        self._m_late.inc(late)
        if violations:
            self._m_budget.inc(violations)
        if now - self._swept_at >= self.sweep_interval:
            self._sweep(now)
        self._g_open.set(len(live))

    def _merge(self, ta: LiveTrace, tb: LiveTrace) -> None:
        """Union two live traces, smaller member list into larger."""
        if len(ta.spans) < len(tb.spans):
            ta, tb = tb, ta
        winner, loser = ta, tb
        state_of = self._state_of
        for span in loser.spans:
            state_of[span.span_id] = winner
        winner.spans.extend(loser.spans)
        if loser.first_start < winner.first_start:
            winner.first_start = loser.first_start
        if loser.max_end > winner.max_end:
            winner.max_end = loser.max_end
        if loser.last_update > winner.last_update:
            winner.last_update = loser.last_update
        if loser.opened_at < winner.opened_at:
            winner.opened_at = loser.opened_at
        lr = loser.root_span
        wr = winner.root_span
        if (lr.start_time, lr.span_id) < (wr.start_time, wr.span_id):
            winner.root_span = lr
            wr = lr
        winner.root_complete = wr.end_time >= winner.max_end
        if winner.state == QUIESCENT or loser.state == QUIESCENT:
            winner.state = OPEN
            self._m_reopened.inc()
        del self._live[loser.key]
        self._m_merges.inc()

    def _sweep(self, now: float) -> None:
        """Apply idle-timeout lifecycle transitions at sim time *now*."""
        self._swept_at = now
        due = self._due
        finish_after = self.finish_after
        quiescent_after = self.quiescent_after
        root_grace = self.root_grace
        quiesced = 0
        for trace in self._live.values():
            idle = now - trace.last_update
            if idle >= finish_after:
                trace.finish_reason = REASON_IDLE
                due.append(trace)
            elif trace.root_complete and idle >= root_grace:
                trace.finish_reason = REASON_ROOT_COMPLETE
                due.append(trace)
            elif idle >= quiescent_after and trace.state == OPEN:
                trace.state = QUIESCENT
                quiesced += 1
        if quiesced:
            self._m_quiesced.inc(quiesced)
        for trace in due:
            self._retire(trace, now)
        due.clear()

    def _retire(self, trace: LiveTrace, now: float) -> None:
        """Evict one live trace's states and queue it for assembly."""
        state_of = self._state_of
        for span in trace.spans:
            del state_of[span.span_id]
        del self._live[trace.key]
        trace.state = FINISHED
        trace.finished_at = now
        self._pending.append(trace)
        self._m_finished.inc()
        self._h_lag.observe(now - trace.last_update)

    # -- cold path ----------------------------------------------------------

    def tick(self, now: float) -> list[FinishedTrace]:
        """Advance lifecycles to sim time *now* with no new spans, then
        assemble whatever retired.  The idle heartbeat (e.g. from
        :meth:`run`) that finishes traces after load stops."""
        self._sweep(now)
        self._g_open.set(len(self._live))
        return self.finalize_pending()

    def drain(self, now: float) -> list[FinishedTrace]:
        """Force-finish every live trace (end of run / shutdown)."""
        for trace in list(self._live.values()):
            trace.finish_reason = REASON_FORCED
            self._retire(trace, now)
        self._g_open.set(0.0)
        return self.finalize_pending()

    def finalize_pending(self) -> list[FinishedTrace]:
        """Parent-assemble and export every trace retired since the
        last call.  Kept out of the ``on_spans`` hot closure: the
        parent-rule table sorts the trace, an O(n log n) pass that
        belongs on the per-trace cold path, not the per-span one."""
        pending = self._pending
        if not pending:
            return []
        self._pending = []
        exporter = self.exporter
        out: list[FinishedTrace] = []
        for live in pending:
            trace = build_trace(live.spans)
            record = FinishedTrace(
                trace=trace, key=live.key, opened_at=live.opened_at,
                finished_at=live.finished_at, reason=live.finish_reason,
                assembly_lag=live.finished_at - live.last_update)
            if exporter is not None:
                exporter.export_trace(trace)
            out.append(record)
        self.finished.extend(out)
        return out

    def run(self, sim, interval: float = 0.05):
        """Spawn a sweep/finalize heartbeat process on *sim*."""
        def loop():
            """Background heartbeat body."""
            while True:
                yield interval
                self.tick(sim.now)

        return sim.spawn(loop(), name="continuous-assembler")

    # -- observability ------------------------------------------------------

    def stats(self) -> dict:
        """Live/lifetime counters for ``pipeline_stats()``."""
        return {
            "open_traces": len(self._live),
            "tracked_spans": len(self._state_of),
            "pending_finalize": len(self._pending),
            "finished": self._m_finished.value,
            "merges": self._m_merges.value,
            "reopened": self._m_reopened.value,
            "quiesced": self._m_quiesced.value,
            "late_links": self._m_late.value,
            "budget_violations": self._m_budget.value,
            "spans_seen": self._m_spans.value,
        }
