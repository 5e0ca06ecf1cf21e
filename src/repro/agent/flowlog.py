"""Network spans from device capture points (cBPF/AF_PACKET, §3.2.1).

Each enabled capture device yields :class:`PacketRecord`s.  The builder
parses the captured payloads with the same protocol inference engine the
syscall pipeline uses, pairs request and response *per device*, and emits
``NETWORK`` spans.  In the assembled trace these slot between the client's
and server's eBPF spans, ordered by their position along the path —
Appendix A's hop-by-hop coverage from end-hosts to gateways.

Retransmitted segments re-traverse the path and would be captured twice;
they are deduplicated by (direction, sequence number), keeping the first
observation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ids import IdAllocator
from repro.core.span import Span, SpanKind, SpanSide
from repro.network.captures import PacketRecord
from repro.protocols.base import MessageType, third_party_trace_id
from repro.protocols.inference import ProtocolInferenceEngine


class FlowSpanBuilder:
    """Turns per-device packet records into NETWORK spans."""

    def __init__(self, ids: IdAllocator, host: str = ""):
        self._ids = ids
        self.host = host
        self._engine = ProtocolInferenceEngine()
        self._open: dict[tuple, dict] = {}
        self._seen: set[tuple] = set()
        self.duplicates = 0

    def feed(self, record: PacketRecord) -> Optional[Span]:
        """Process one capture record; returns a span when a pair closes."""
        dedup_key = (record.flow_id, record.device_name, record.direction,
                     record.tcp_seq)
        if dedup_key in self._seen:
            self.duplicates += 1
            return None
        self._seen.add(dedup_key)
        parsed = self._engine.parse(record.flow_id, record.payload)
        if parsed is None:
            return None
        device_key = (record.flow_id, record.device_name)
        opens = self._open.setdefault(device_key, {"pipeline": [],
                                                   "by_stream": {}})
        if parsed.msg_type is MessageType.REQUEST:
            entry = (record, parsed)
            if parsed.stream_id is not None:
                opens["by_stream"][parsed.stream_id] = entry
            else:
                opens["pipeline"].append(entry)
            return None
        if parsed.msg_type is not MessageType.RESPONSE:
            return None
        if parsed.stream_id is not None:
            entry = opens["by_stream"].pop(parsed.stream_id, None)
        else:
            entry = opens["pipeline"].pop(0) if opens["pipeline"] else None
        if entry is None:
            return None
        request_record, request_parsed = entry
        return self._build_span(request_record, request_parsed, record,
                                parsed)

    def _build_span(self, req: PacketRecord, req_parsed, resp: PacketRecord,
                    resp_parsed) -> Span:
        return Span(
            span_id=self._ids.next_id(),
            kind=SpanKind.NETWORK,
            side=SpanSide.NETWORK,
            start_time=req.timestamp,
            end_time=resp.timestamp,
            host=self.host,
            device_name=req.device_name,
            path_index=req.path_index,
            protocol=req_parsed.protocol,
            operation=req_parsed.operation,
            resource=req_parsed.resource,
            status=resp_parsed.status,
            status_code=resp_parsed.status_code,
            request_bytes=req.byte_len,
            response_bytes=resp.byte_len,
            x_request_id=req_parsed.x_request_id,
            flow_key=req.five_tuple.canonical(),
            req_tcp_seq=req.tcp_seq,
            resp_tcp_seq=resp.tcp_seq,
            otel_trace_id=third_party_trace_id(req_parsed.headers),
            tags=dict(req.device_tags),
        )
