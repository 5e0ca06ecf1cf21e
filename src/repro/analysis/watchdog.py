"""Continuous anomaly detection over the span stream.

The paper's production workflow starts with a human noticing a problem;
this module closes the loop: a watchdog periodically scans recent spans
for error bursts and latency regressions per service, emitting alerts
that carry the span an operator (or :func:`repro.analysis.diagnose`)
would start from.  It turns "rapid problem location" into a push model.

Two refinements support continuous evaluation:

* **Per-subject cooldown.**  A condition that persists across windows
  would re-alert every scan; instead, after an alert fires, further
  alerts with the same ``(kind, service)`` are suppressed until
  ``cooldown`` sim-seconds have passed, with the suppressed count kept
  per subject (:attr:`AnomalyWatchdog.suppressed`) so the report can
  still say "…and 17 more".  Degradation-tier alerts bypass the
  cooldown: they replay the controller's transition log exactly once,
  so they are already deduplicated at the source and an enter/leave
  pair must never lose its second half.
* **Push-path latency budgets.**  :meth:`AnomalyWatchdog.
  watch_streaming` attaches per-service latency budgets to a
  :class:`repro.server.streaming.ContinuousAssembler`; violating spans
  alert at *arrival* ("latency-budget" kind) instead of waiting for a
  query-time scan — the server side only sees a duck-typed callback,
  keeping the server→analysis layering intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.agent.overload import Tier
from repro.core.span import Span, SpanSide


@dataclass
class Alert:
    """One detected anomaly."""

    # "error-burst" | "latency-regression" | "degradation-tier"
    # | "latency-budget"
    kind: str
    service: str              # process name (or agent host)
    window_start: float
    window_end: float
    value: float              # error rate, latency ratio, or new tier
    threshold: float
    exemplar_span_id: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        """One-paragraph human-readable description."""
        if self.kind == "degradation-tier":
            return (f"[{self.kind}] agent {self.service} "
                    f"@{self.window_start:.2f}s: {self.detail}")
        if self.kind == "latency-budget":
            return (f"[{self.kind}] {self.service} "
                    f"@{self.window_start:.2f}s: span ran "
                    f"{self.value * 1000:.1f} ms against a "
                    f"{self.threshold * 1000:.1f} ms budget"
                    + (f" ({self.detail})" if self.detail else ""))
        if self.kind == "error-burst":
            detail = f"error rate {self.value:.0%} >= {self.threshold:.0%}"
        else:
            detail = (f"p50 latency {self.value:.1f}x baseline "
                      f"(threshold {self.threshold:.1f}x)")
        return (f"[{self.kind}] {self.service} "
                f"@{self.window_start:.2f}-{self.window_end:.2f}s: "
                f"{detail}")


@dataclass
class _ServiceBaseline:
    samples: list = field(default_factory=list)

    def median(self) -> Optional[float]:
        """Median of collected samples (None below min count)."""
        if len(self.samples) < 5:
            return None
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2]

    def extend_capped(self, values: list, cap: int = 500) -> None:
        """Append samples, keeping at most *cap*."""
        self.samples.extend(values)
        if len(self.samples) > cap:
            self.samples = self.samples[-cap:]


class AnomalyWatchdog:
    """Windowed scanner over a DeepFlow server's span store."""

    def __init__(self, server, *, agents=(), window: float = 0.5,
                 error_rate_threshold: float = 0.2,
                 latency_ratio_threshold: float = 3.0,
                 min_samples: int = 5, cooldown: float = 2.0):
        self.server = server
        #: Agents whose overload controllers are watched for tier moves.
        self.agents = list(agents)
        self.window = window
        self.error_rate_threshold = error_rate_threshold
        self.latency_ratio_threshold = latency_ratio_threshold
        self.min_samples = min_samples
        #: Sim-seconds an alerted (kind, service) subject stays muted.
        self.cooldown = cooldown
        #: (kind, service) → alerts suppressed by the cooldown so far.
        self.suppressed: dict[tuple[str, str], int] = {}
        self.alerts: list[Alert] = []
        self._baselines: dict[str, _ServiceBaseline] = {}
        self._scanned_until = 0.0
        self._seen_transitions: dict[int, int] = {}
        self._last_fired: dict[tuple[str, str], float] = {}

    def watch_streaming(self, assembler,
                        budgets: dict[str, float]) -> None:
        """Attach per-service latency *budgets* (seconds) to a
        continuous assembler: each violating span alerts the moment it
        arrives on the push path, subject to the same per-subject
        cooldown as scan-time alerts."""
        assembler.set_budget_sink(self._on_budget_violation, budgets)

    def _on_budget_violation(self, span: Span, budget: float,
                             now: float) -> None:
        """Budget-sink callback invoked by the assembler's hot path."""
        alert = Alert(
            kind="latency-budget",
            service=span.process_name or span.host,
            window_start=now, window_end=now,
            value=span.end_time - span.start_time, threshold=budget,
            exemplar_span_id=span.span_id,
            detail=span.endpoint or span.protocol)
        if self._admit(alert):
            self.alerts.append(alert)

    def _admit(self, alert: Alert) -> bool:
        """Cooldown gate: at most one alert per (kind, service) per
        ``cooldown`` sim-seconds, counting what it mutes.

        Degradation-tier alerts always pass — the transition log is
        replayed exactly once, and muting a "recovered" half of an
        enter/leave pair would invert the operator's picture.
        """
        if alert.kind == "degradation-tier" or self.cooldown <= 0:
            return True
        key = (alert.kind, alert.service)
        last = self._last_fired.get(key)
        if last is not None and alert.window_start - last < self.cooldown:
            self.suppressed[key] = self.suppressed.get(key, 0) + 1
            return False
        self._last_fired[key] = alert.window_start
        return True

    def scan(self, now: float) -> list[Alert]:
        """Scan complete windows in (scanned_until, now]; returns new
        alerts (also appended to :attr:`alerts`), after the per-subject
        cooldown has filtered repeats."""
        candidates: list[Alert] = self._scan_degradation()
        while self._scanned_until + self.window <= now:
            start = self._scanned_until
            end = start + self.window
            candidates.extend(self._scan_window(start, end))
            self._scanned_until = end
        new_alerts = [alert for alert in candidates
                      if self._admit(alert)]
        self.alerts.extend(new_alerts)
        return new_alerts

    def _scan_degradation(self) -> list[Alert]:
        """Alert on every overload-tier transition not yet reported.

        The agent going deaf is itself an anomaly an operator must see:
        spans are being degraded or sampled, so dashboards built on them
        undercount.  Entering a tier and *leaving* it both alert — the
        controller's transition log is replayed exactly once.
        """
        alerts: list[Alert] = []
        for agent in self.agents:
            controller = getattr(agent, "overload", None)
            if controller is None:
                continue
            seen = self._seen_transitions.get(id(agent), 0)
            transitions = controller.transitions
            for when, old, new, reason in transitions[seen:]:
                alerts.append(Alert(
                    kind="degradation-tier", service=agent.host,
                    window_start=when, window_end=when,
                    value=float(Tier[new]), threshold=float(Tier[old]),
                    detail=f"{old} -> {new} ({reason})"))
            self._seen_transitions[id(agent)] = len(transitions)
        return alerts

    def _scan_window(self, start: float, end: float) -> list[Alert]:
        spans = [span for span in self.server.span_list(start, end)
                 if span.side is SpanSide.SERVER]
        by_service: dict[str, list[Span]] = {}
        for span in spans:
            by_service.setdefault(span.process_name, []).append(span)
        alerts: list[Alert] = []
        for service, service_spans in sorted(by_service.items()):
            if len(service_spans) < self.min_samples:
                continue
            errors = [span for span in service_spans if span.is_error]
            error_rate = len(errors) / len(service_spans)
            if error_rate >= self.error_rate_threshold:
                alerts.append(Alert(
                    kind="error-burst", service=service,
                    window_start=start, window_end=end,
                    value=error_rate,
                    threshold=self.error_rate_threshold,
                    exemplar_span_id=errors[-1].span_id))
            durations = sorted(span.duration for span in service_spans)
            p50 = durations[len(durations) // 2]
            baseline = self._baselines.get(service)
            if baseline is None:
                baseline = _ServiceBaseline()
                self._baselines[service] = baseline
            reference = baseline.median()
            if (reference is not None and reference > 0
                    and p50 / reference >= self.latency_ratio_threshold):
                slowest = max(service_spans,
                              key=lambda span: span.duration)
                alerts.append(Alert(
                    kind="latency-regression", service=service,
                    window_start=start, window_end=end,
                    value=p50 / reference,
                    threshold=self.latency_ratio_threshold,
                    exemplar_span_id=slowest.span_id))
            else:
                # Only healthy windows feed the baseline, so a sustained
                # regression keeps alerting instead of normalizing.
                baseline.extend_capped(durations)
        return alerts

    def run(self, sim, interval: Optional[float] = None):
        """Spawn a background scanning loop on the simulator."""
        period = interval if interval is not None else self.window

        def loop() -> Generator:
            """Background loop body."""
            while True:
                yield period
                self.scan(sim.now)

        return sim.spawn(loop(), name="watchdog")
