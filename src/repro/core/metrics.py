"""Pipeline self-metrics: counters, gauges, and histograms on sim time.

The pipeline finally observes itself: every stage of the span path —
agent dispatch, server ingest, store retention, continuous assembly,
export — increments instruments registered here, and the registry
renders both a plain snapshot (``DeepFlowServer.pipeline_stats()``) and
the OTLP-shaped metrics form (:func:`repro.core.export.
metrics_to_otlp_json`).

Design constraints, in order:

* **Hot-path cost.**  :meth:`Counter.inc`, :meth:`Gauge.set`, and
  :meth:`Histogram.observe` run on ingest paths (per batch, and in the
  continuous assembler per span batch), so their bodies are
  allocation-free — enforced by the ``hp-alloc-in-guard`` analyzer rule
  (tools/analyze/checkers/hot_path.py lists them as guard seeds).
  Callers on per-event loops hoist the bound method into a local first.
* **Determinism.**  Instruments never read a clock themselves: sim time
  is passed in at snapshot/export time, and histogram buckets are fixed
  explicit bounds chosen up front — the same run always produces the
  same bucket counts (DESIGN.md decision 1 extends to telemetry).
* **Standalone use.**  Each instrument works detached from a registry
  (the agent builds private counters when it has no server), so no
  stage needs a None-check on its hot path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "PipelineMetrics",
]

#: Default histogram bounds, seconds: sub-millisecond to minutes in a
#: fixed 1-2.5-5 ladder.  Deterministic and shared by every latency
#: histogram unless a caller picks its own.
DEFAULT_LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonic event count (OTLP: a cumulative monotonic sum)."""

    __slots__ = ("name", "description", "value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount*; allocation-free (runs on ingest paths)."""
        self.value += amount


class Gauge:
    """Last-written value (OTLP: a gauge data point)."""

    __slots__ = ("name", "description", "value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level; allocation-free."""
        self.value = value


class Histogram:
    """Fixed-bound distribution (OTLP: an explicit-bounds histogram).

    ``bounds`` are upper bucket edges in ascending order; an
    observation lands in the first bucket whose edge is >= the value,
    with one implicit overflow bucket past the last edge.  The bucket
    layout never changes after construction, so two runs of the same
    deterministic workload produce identical counts.
    """

    __slots__ = ("name", "description", "bounds", "counts", "count",
                 "sum", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds=DEFAULT_LATENCY_BOUNDS,
                 description: str = "") -> None:
        bounds = tuple(bounds)
        if not bounds or any(b >= a for a, b in zip(bounds[1:], bounds)):
            raise ValueError("histogram bounds must strictly increase")
        self.name = name
        self.description = description
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation; allocation-free."""
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the *q*-quantile (0 < q <= 1).

        Returns the upper edge of the bucket holding the rank-``q``
        observation; the overflow bucket reports the exact observed
        maximum.  Deterministic, like everything else here.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.sum / self.count


class PipelineMetrics:
    """Name-keyed instrument registry shared by every pipeline stage.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: each
    stage resolves its instruments once at construction time and keeps
    the objects (or their bound methods) in locals/attributes — the
    registry itself is never touched on a hot path.
    """

    def __init__(self, service: str = "deepflow-pipeline") -> None:
        self.service = service
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration ------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter called *name*."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name, description)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge called *name*."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name, description)
            self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str,
                  bounds=DEFAULT_LATENCY_BOUNDS,
                  description: str = "") -> Histogram:
        """Get or create the histogram called *name*.

        *bounds* only applies on creation; a later caller naming the
        same histogram gets the existing bucket layout.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name, bounds, description)
            self._histograms[name] = instrument
        return instrument

    # -- read-out ----------------------------------------------------------

    def instruments(self) -> list:
        """Every instrument, counters then gauges then histograms,
        name-sorted within each kind (the canonical export order)."""
        out: list = []
        for table in (self._counters, self._gauges, self._histograms):
            for name in sorted(table):
                out.append(table[name])
        return out

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (pipeline_stats form)."""
        counters = {name: instrument.value
                    for name, instrument in sorted(self._counters.items())}
        gauges = {name: instrument.value
                  for name, instrument in sorted(self._gauges.items())}
        histograms = {}
        for name, histogram in sorted(self._histograms.items()):
            histograms[name] = {
                "count": histogram.count,
                "sum": histogram.sum,
                "max": histogram.max,
                "mean": histogram.mean(),
                "p50": histogram.percentile(0.50),
                "p99": histogram.percentile(0.99),
            }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def get(self, name: str) -> Optional[object]:
        """Look up an instrument of any kind by name (None if absent)."""
        return (self._counters.get(name) or self._gauges.get(name)
                or self._histograms.get(name))
