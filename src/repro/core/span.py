"""Span and trace data model.

Span kinds mirror the paper's data sources:

* ``SYSCALL`` — constructed from the eBPF syscall hooks (Design 2);
* ``UPROBE`` — syscall sessions whose payload semantics were recovered
  from a uprobe extension hook (pre-TLS plaintext, §3.2.1);
* ``NETWORK`` — constructed from cBPF/AF_PACKET capture points on
  network devices (Appendix A's hop-by-hop spans);
* ``APP`` — third-party spans integrated from an intrusive tracer
  (OpenTelemetry/Jaeger/Zipkin, §3.3.2).

Association fields carried by a span are exactly the implicit-context
identifiers of Algorithm 1: ``systrace_id``, the pseudo-thread key, the
``X-Request-ID``, the per-flow TCP sequence numbers of request and
response, and any third-party trace id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

#: Sort key of the canonical span order: what a :class:`Trace` holds
#: its spans in and ``repro.server.assembler``'s parent rules consume.
CANONICAL_ORDER = attrgetter("start_time", "span_id")

#: Message-queue protocols.  A ``(protocol, resource, message id)``
#: triple names one message across a broker relay (the queue-relay
#: association axis), and their client/server sides export as the OTLP
#: producer/consumer span kinds.
MESSAGING_PROTOCOLS = frozenset({"amqp", "kafka", "mqtt"})


class SpanKind(enum.Enum):
    """Data source that produced a span."""
    SYSCALL = "ebpf"
    UPROBE = "ebpf-uprobe"
    NETWORK = "cbpf"
    APP = "app"


class SpanSide(enum.Enum):
    """Vantage point of a span."""
    SERVER = "s"     # session whose request arrived via ingress
    CLIENT = "c"     # session whose request left via egress
    NETWORK = "net"  # observed mid-path at a device
    APP = "app"      # third-party application span


@dataclass(slots=True)
class Span:
    """One request/response session observed at one vantage point.

    Slotted: the agent constructs one of these per session on its hot
    path and the assembler's rule table reads fields millions of times
    at scale, so attribute access goes through slot descriptors rather
    than a per-instance dict.
    """

    span_id: int
    kind: SpanKind
    side: SpanSide
    start_time: float
    end_time: float
    # location
    host: str = ""
    process_name: str = ""
    pid: int = 0
    tid: int = 0
    coroutine_id: Optional[int] = None
    device_name: str = ""          # network spans only
    path_index: int = -1           # network spans: position along path
    # semantics
    protocol: str = ""
    operation: str = ""
    resource: str = ""
    status: str = ""
    status_code: Optional[int] = None
    request_bytes: int = 0
    response_bytes: int = 0
    # implicit-context association keys (Algorithm 1)
    systrace_id: Optional[int] = None
    pseudo_thread_key: Optional[tuple] = None
    x_request_id: Optional[str] = None
    flow_key: Optional[tuple] = None
    req_tcp_seq: Optional[int] = None
    resp_tcp_seq: Optional[int] = None
    otel_trace_id: Optional[str] = None
    otel_span_id: Optional[str] = None
    otel_parent_span_id: Optional[str] = None
    socket_id: Optional[int] = None
    #: The protocol's embedded distinguishing attribute (§3.3.1) for this
    #: session: delivery tag / correlation id / packet id.  Used by the
    #: queue-relay extension to pair publish and deliver spans across a
    #: message broker (beyond-paper extension; the paper lists message
    #: queues as future work).
    message_id: Optional[int] = None
    # correlation payload (§3.4).  Read-only once stored: a span that
    # reached the server with only the agent's (vpc, ip) pair holds its
    # endpoint's shared tag map (``types.MappingProxyType``, one per
    # endpoint and tenant), so writing to it raises TypeError;
    # ``dict(span.tags)`` is a mutable copy.
    tags: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    # set by the trace assembler
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds between start and end."""
        return self.end_time - self.start_time

    @property
    def endpoint(self) -> str:
        """Human-readable endpoint label."""
        if self.resource:
            return f"{self.operation} {self.resource}".strip()
        return self.operation or self.protocol

    @property
    def is_error(self) -> bool:
        """Whether this carries an error status."""
        return self.status == "error"

    def encloses(self, other: "Span", slack: float = 0.0) -> bool:
        """Whether this span's interval contains *other*'s."""
        return (self.start_time - slack <= other.start_time
                and other.end_time <= self.end_time + slack)

    def summary(self) -> str:
        """One-line rendering used by trace pretty-printers."""
        where = self.device_name or self.process_name or self.host
        status = f" [{self.status_code}]" if self.status_code else ""
        kind = self.kind.value
        return (f"{self.endpoint}{status} @{where} "
                f"({kind}/{self.side.value}, "
                f"{self.duration * 1000:.2f} ms)")


class Trace:
    """An assembled trace: spans plus parent links, ready for display."""

    def __init__(self, spans: list[Span]):
        self.spans = sorted(spans, key=CANONICAL_ORDER)
        self._by_id = {span.span_id: span for span in self.spans}
        #: parent id → children in canonical order; built on first use.
        self._children: Optional[dict[int, list[Span]]] = None

    @classmethod
    def _from_ordered(cls, ordered: list[Span]) -> "Trace":
        """Adopt spans already in canonical order (the assembler's)."""
        trace = cls(())
        trace.spans = ordered
        trace._by_id = {span.span_id: span for span in ordered}
        return trace

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def span(self, span_id: int) -> Span:
        """The span with the given id."""
        return self._by_id[span_id]

    def roots(self) -> list[Span]:
        """Spans with no parent inside this trace."""
        return [span for span in self.spans
                if span.parent_id is None
                or span.parent_id not in self._by_id]

    def children(self, span: Span) -> list[Span]:
        """Direct children of *span*: from a map built once, from the
        parent links as they stand on first use, not a scan per call."""
        index = self._children
        if index is None:
            index = self._children = {}
            for child in self.spans:  # roots land under None: no span's id
                index.setdefault(child.parent_id, []).append(child)
        return list(index.get(span.span_id, ()))

    def depth(self, span: Span) -> int:
        """Distance from *span* to its root."""
        depth = 0
        current = span
        seen = set()
        while (current.parent_id is not None
               and current.parent_id in self._by_id
               and current.span_id not in seen):
            seen.add(current.span_id)
            current = self._by_id[current.parent_id]
            depth += 1
        return depth

    @property
    def duration(self) -> float:
        """Elapsed seconds between start and end."""
        if not self.spans:
            return 0.0
        return (max(span.end_time for span in self.spans)
                - min(span.start_time for span in self.spans))

    def errors(self) -> list[Span]:
        """Every error span in the trace."""
        return [span for span in self.spans if span.is_error]

    def to_text(self) -> str:
        """Render the trace as an indented tree (examples/case studies)."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            """Depth-first tree walk."""
            lines.append("  " * depth + "- " + span.summary())
            for child in self.children(span):
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)
