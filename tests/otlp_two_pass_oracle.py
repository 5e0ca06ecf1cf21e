"""The two-pass OTLP/JSON encoder ``repro.core.export`` shipped before
the one-pass rewrite, kept statement for statement as a test oracle.

``trace_to_otlp_json`` in ``src/`` builds the wire dicts straight from
:class:`Span` in canonical key order; this module still goes the long
way round — a typed ``(key, value_type, value)`` tuple list per span,
one ``sort()``, then a type dispatch per attribute — and
``tests/test_otlp_roundtrip.py`` requires the two to agree byte for
byte.  Nothing here imports an encoder helper from ``src/``: only the
constants both sides must share.
"""

import math
from typing import Any, Optional

from repro.core.export import (MESSAGING_PROTOCOLS, SCOPE_NAME,
                               SCOPE_VERSION)
from repro.core.span import Span, SpanSide, Trace

_HEX_SPEC = {16: ((1 << 64) - 1, "016x"), 32: ((1 << 128) - 1, "032x")}


def _hex_id(value: Optional[int], width: int = 16) -> str:
    if value is None:
        return ""
    mask, spec = _HEX_SPEC[width]
    return format(value & mask, spec)


def _span_kind(span: Span) -> str:
    side = span.side
    if span.protocol in MESSAGING_PROTOCOLS:
        if side is SpanSide.CLIENT:
            return "SPAN_KIND_PRODUCER"
        if side is SpanSide.SERVER:
            return "SPAN_KIND_CONSUMER"
    if side is SpanSide.SERVER:
        return "SPAN_KIND_SERVER"
    if side is SpanSide.CLIENT:
        return "SPAN_KIND_CLIENT"
    return "SPAN_KIND_INTERNAL"


def _span_status(span: Span) -> tuple[str, Optional[str]]:
    if span.is_error:
        message = str(span.tags.get("error.kind", "")) or "error"
        return "STATUS_CODE_ERROR", message
    if span.status:
        return "STATUS_CODE_OK", None
    return "STATUS_CODE_UNSET", None


def span_attribute_tuples(span: Span) -> list[tuple[str, str, Any]]:
    """Typed ``(key, value_type, value)`` attributes, sorted by key."""
    attrs: list[tuple[str, str, Any]] = []
    if span.host:
        attrs.append(("net.host.name", "string", span.host))
    if span.pid:
        attrs.append(("process.pid", "int", span.pid))
    attrs.append(("deepflow.source", "string", span.kind.value))
    attrs.append(("deepflow.side", "string", span.side.value))
    if span.protocol:
        attrs.append(("deepflow.protocol", "string", span.protocol))
    http_family = span.protocol.startswith("http") \
        or span.protocol == "grpc"
    if http_family:
        if span.operation:
            attrs.append(("http.method", "string", span.operation))
        if span.resource:
            attrs.append(("http.route", "string", span.resource))
        if span.status_code is not None:
            attrs.append(("http.status_code", "int", span.status_code))
    else:
        if span.operation:
            attrs.append(("deepflow.operation", "string",
                          span.operation))
        if span.resource:
            attrs.append(("deepflow.resource", "string", span.resource))
        if span.status_code is not None:
            attrs.append(("deepflow.status_code", "int",
                          span.status_code))
    if span.request_bytes:
        attrs.append(("deepflow.request_bytes", "int",
                      span.request_bytes))
    if span.response_bytes:
        attrs.append(("deepflow.response_bytes", "int",
                      span.response_bytes))
    for key, value in span.tags.items():
        attrs.append((f"deepflow.tag.{key}", "string", str(value)))
    for key, value in span.metrics.items():
        value = float(value)
        if math.isfinite(value):
            attrs.append((f"deepflow.metric.{key}", "double", value))
    attrs.sort()
    return attrs


def _encode_attr(key: str, value_type: str, value: Any) -> dict[str, Any]:
    if value_type == "string":
        encoded: dict[str, Any] = {"stringValue": str(value)}
    elif value_type == "int":
        encoded = {"intValue": str(int(value))}
    elif value_type == "double":
        encoded = {"doubleValue": float(value)}
    elif value_type == "bool":
        encoded = {"boolValue": bool(value)}
    else:
        raise ValueError(f"unknown attribute value type {value_type!r}")
    return {"key": key, "value": encoded}


def _encode_attrs(attrs: list[tuple[str, str, Any]]) -> list[dict]:
    out = []
    for key, value_type, value in attrs:
        if value_type == "string":
            out.append({"key": key, "value": {"stringValue": str(value)}})
        elif value_type == "int":
            out.append({"key": key,
                        "value": {"intValue": str(int(value))}})
        else:
            out.append(_encode_attr(key, value_type, value))
    return out


def _service_name(span: Span) -> str:
    return span.process_name or span.device_name or span.host or "unknown"


def decompose_trace(trace: Trace) -> dict[str, Any]:
    """The decoded (typed-tuple) form of *trace*."""
    roots = trace.roots()
    trace_hex = _hex_id(roots[0].span_id if roots else 0, width=32)
    groups: dict[str, list[Span]] = {}
    for span in trace:
        groups.setdefault(_service_name(span), []).append(span)
    resources = []
    for service in sorted(groups):
        spans = []
        for span in groups[service]:
            status_code, status_message = _span_status(span)
            spans.append({
                "trace_id": trace_hex,
                "span_id": _hex_id(span.span_id),
                "parent_span_id": _hex_id(span.parent_id),
                "name": span.endpoint or span.protocol or "span",
                "kind": _span_kind(span),
                "start_ns": int(span.start_time * 1e9),
                "end_ns": int(span.end_time * 1e9),
                "status_code": status_code,
                "status_message": status_message,
                "attributes": span_attribute_tuples(span),
            })
        resources.append({
            "attributes": [("service.name", "string", service),
                           ("telemetry.sdk.name", "string", SCOPE_NAME)],
            "scope": (SCOPE_NAME, SCOPE_VERSION),
            "spans": spans,
        })
    return {"resources": resources}


def encode_decoded(decoded: dict[str, Any]) -> dict[str, Any]:
    resource_spans = []
    for resource in decoded["resources"]:
        scope_name, scope_version = resource["scope"]
        spans = []
        for span in resource["spans"]:
            status: dict[str, Any] = {"code": span["status_code"]}
            if span["status_message"] is not None:
                status["message"] = span["status_message"]
            spans.append({
                "traceId": span["trace_id"],
                "spanId": span["span_id"],
                "parentSpanId": span["parent_span_id"],
                "name": span["name"],
                "kind": span["kind"],
                "startTimeUnixNano": str(span["start_ns"]),
                "endTimeUnixNano": str(span["end_ns"]),
                "attributes": _encode_attrs(span["attributes"]),
                "status": status,
            })
        resource_spans.append({
            "resource": {
                "attributes": _encode_attrs(resource["attributes"]),
            },
            "scopeSpans": [{
                "scope": {"name": scope_name, "version": scope_version},
                "spans": spans,
            }],
        })
    return {"resourceSpans": resource_spans}


def two_pass_trace_to_otlp_json(trace: Trace) -> dict[str, Any]:
    """What ``trace_to_otlp_json`` returned at the parent commit."""
    return encode_decoded(decompose_trace(trace))
