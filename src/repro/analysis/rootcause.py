"""Root-cause localization over assembled traces.

This encodes the troubleshooting workflow the paper's operators perform
manually in the case studies: start from an anomalous trace, walk to the
deepest failing span, and read the answer off the span's resource tags
and correlated network metrics — which is only possible because DeepFlow
put that information there (coverage + correlation, Goals 3–4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.span import MESSAGING_PROTOCOLS, Span, SpanKind, Trace
from repro.network.topology import Cluster, Device


@dataclass
class Diagnosis:
    """Outcome of automated root-cause analysis on one trace."""

    category: str            # a Figure 2 category
    culprit: str             # pod / device / service name
    evidence: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-paragraph human-readable description."""
        lines = [f"root cause category: {self.category}",
                 f"culprit: {self.culprit}"]
        lines.extend(f"  - {item}" for item in self.evidence)
        return "\n".join(lines)


def deepest_error_span(trace: Trace) -> Optional[Span]:
    """The error span furthest from the root — where the failure began."""
    errors = trace.errors()
    if not errors:
        return None
    return max(errors, key=lambda span: (trace.depth(span),
                                         span.start_time))


def rank_devices_by_arp(cluster: Cluster) -> list[tuple[Device, int]]:
    """Devices ordered by ARP request count (the §4.1.2 workflow)."""
    ranked = [(device, device.arp_requests)
              for device in cluster.all_devices()]
    ranked.sort(key=lambda item: -item[1])
    return ranked


def _device_category(kind: str) -> str:
    if kind in ("pod-veth", "vswitch"):
        return "virtual network"
    if kind in ("node-nic", "physical-nic", "tor-switch"):
        return "physical network"
    if kind in ("l4-gateway",):
        return "cluster services"
    if kind in ("firewall",):
        return "node configuration"
    return "network infrastructure"


def diagnose(trace: Optional[Trace], cluster: Optional[Cluster] = None,
             metrics: Optional[dict] = None) -> Diagnosis:
    """Classify a failing trace into a Figure 2 category.

    Decision procedure, in evidence order:

    1. network spans or flow metrics pointing at a misbehaving device
       (drops/resets/ARP floods/refused connections) → the device's
       infrastructure category;
    2. middleware spans (AMQP/Kafka/MQTT) failing → network middleware;
    3. DNS spans failing → cluster services;
    4. an application span returning an error status → application;
    5. otherwise: no error evidence → inconclusive.

    *trace* may be None (total outage: nothing was even collected); the
    device-level evidence still applies.
    """
    evidence: list[str] = []
    # 1. Device-level evidence.
    if cluster is not None:
        for device in cluster.all_devices():
            signals = []
            if device.segments_dropped:
                signals.append(f"{device.segments_dropped} drops")
            if device.resets_generated:
                signals.append(f"{device.resets_generated} resets")
            expected_arps = len(device.arp_peers)
            if device.arp_requests > 2 * expected_arps + 2:
                # A healthy device ARPs once per new neighbour; well
                # beyond that is the §4.1.2 redundant-ARP signature.
                signals.append(f"{device.arp_requests} ARP requests for "
                               f"{expected_arps} peers")
            if device.connects_refused:
                signals.append(
                    f"{device.connects_refused} refused connections")
            if signals:
                evidence.append(f"{device.name}: {', '.join(signals)}")
                return Diagnosis(_device_category(device.kind.value),
                                 device.name, evidence)
    if trace is None:
        return Diagnosis("inconclusive", "",
                         ["no trace collected and no device evidence"])
    # 2./3. Protocol-level evidence from error spans.
    error_spans = trace.errors()
    middleware = [span for span in error_spans
                  if span.protocol in MESSAGING_PROTOCOLS]
    if middleware:
        # The broker-side span names the culprit pod; a client-side span
        # only names the victim.
        from repro.core.span import SpanSide
        span = min(middleware,
                   key=lambda s: 0 if s.side is SpanSide.SERVER else 1)
        evidence.append(
            f"{span.protocol} span {span.endpoint!r} failed "
            f"({span.tags.get('error.kind', span.status)})")
        return Diagnosis("network middleware",
                         span.tags.get("pod", span.process_name),
                         evidence)
    dns_errors = [span for span in error_spans if span.protocol == "dns"]
    if dns_errors:
        span = dns_errors[0]
        evidence.append(f"DNS lookup {span.resource!r} failed "
                        f"(rcode={span.status_code})")
        return Diagnosis("cluster services",
                         span.tags.get("pod", span.process_name), evidence)
    # Reset evidence carried on span metrics (connection-level failure).
    for span in trace:
        if span.metrics.get("tcp.resets", 0) > 0 and span.is_error:
            evidence.append(
                f"{span.endpoint} saw {int(span.metrics['tcp.resets'])} "
                "TCP resets")
            return Diagnosis("network middleware",
                             span.tags.get("pod", span.process_name),
                             evidence)
    # 4. Application-level error.
    deepest = deepest_error_span(trace)
    if deepest is not None:
        where = deepest.tags.get("pod", deepest.process_name)
        evidence.append(
            f"deepest error span: {deepest.endpoint} "
            f"[{deepest.status_code}] at {where}")
        return Diagnosis("application", where, evidence)
    return Diagnosis("inconclusive", "", ["no error evidence in trace"])
