"""Per-flow network metrics.

DeepFlow's kernel vantage point lets it attach network metrics — TCP
retransmissions, resets, RTT, connection setup time — to traces (§1,
Goal 4).  The transport records them here per flow; the agent reads them
and stamps them onto spans, which is what makes the §4.1.3 cross-layer
correlation case work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.sockets import FiveTuple


@dataclass
class FlowMetrics:
    """Counters for one TCP connection (client-oriented five-tuple)."""

    five_tuple: FiveTuple
    flow_id: int
    established_at: float = 0.0
    connect_rtt: float = 0.0
    segments_c2s: int = 0
    segments_s2c: int = 0
    bytes_c2s: int = 0
    bytes_s2c: int = 0
    retransmissions: int = 0
    resets: int = 0
    lost_segments: int = 0
    arp_requests: int = 0
    latency_sum: float = 0.0
    latency_samples: int = 0
    closed: bool = False

    @property
    def mean_segment_latency(self) -> float:
        """Average one-way segment latency observed."""
        if self.latency_samples == 0:
            return 0.0
        return self.latency_sum / self.latency_samples

    def record_segment(self, direction: str, nbytes: int,
                       latency: float) -> None:
        """Account one delivered segment."""
        if direction == "c2s":
            self.segments_c2s += 1
            self.bytes_c2s += nbytes
        else:
            self.segments_s2c += 1
            self.bytes_s2c += nbytes
        self.latency_sum += latency
        self.latency_samples += 1

    def as_tags(self) -> dict[str, float]:
        """Flatten to the metric tags attached to spans."""
        return {
            "tcp.retransmissions": float(self.retransmissions),
            "tcp.resets": float(self.resets),
            "tcp.lost_segments": float(self.lost_segments),
            "tcp.connect_rtt": self.connect_rtt,
            "tcp.mean_latency": self.mean_segment_latency,
            "net.arp_requests": float(self.arp_requests),
        }


class FlowMetricsStore:
    """Index of flow metrics by flow id and by canonical five-tuple."""

    def __init__(self) -> None:
        self._by_id: dict[int, FlowMetrics] = {}
        self._by_tuple: dict[tuple, FlowMetrics] = {}

    def create(self, five_tuple: FiveTuple, flow_id: int,
               established_at: float) -> FlowMetrics:
        """Create and index metrics for a new flow."""
        metrics = FlowMetrics(five_tuple, flow_id,
                              established_at=established_at)
        self._by_id[flow_id] = metrics
        self._by_tuple[five_tuple.canonical()] = metrics
        return metrics

    def lookup(self, five_tuple: FiveTuple) -> FlowMetrics | None:
        """Look up by key, or None."""
        return self._by_tuple.get(five_tuple.canonical())

    def all(self) -> list[FlowMetrics]:
        """Every tracked entry, as a list."""
        return list(self._by_id.values())

    def totals(self) -> dict[str, float]:
        """Aggregate counters across every flow (used in dashboards/tests)."""
        totals = {"retransmissions": 0.0, "resets": 0.0,
                  "lost_segments": 0.0, "arp_requests": 0.0}
        for metrics in self._by_id.values():
            totals["retransmissions"] += metrics.retransmissions
            totals["resets"] += metrics.resets
            totals["lost_segments"] += metrics.lost_segments
            totals["arp_requests"] += metrics.arp_requests
        return totals
