"""Trace export to interchange formats.

Assembled traces can be handed to existing visualization and pipeline
tooling in two formats, each a plain function:

* :func:`trace_to_jaeger` — the Jaeger UI JSON layout (one object per
  trace with ``spans`` and ``processes``);
* :func:`trace_to_otlp_json` — the canonical OTLP/JSON shape used by the
  continuous pipeline: ``resourceSpans`` → resource (attribute kv-list)
  → ``scopeSpans`` → scope → spans, with 32-hex trace ids, 16-hex span
  ids, int64 timestamps as decimal strings, and span attributes that
  follow the OBI naming conventions (``net.host.name``,
  ``http.method``, ``http.route``, ``http.status_code``) documented in
  :data:`SPAN_ATTRIBUTE_CONVENTIONS`.

OTLP/JSON is written as **text, in one pass**: :class:`Span` to the
compact wire string an OTLP/HTTP endpoint takes, with no dict tree in
between.  It round-trips: :func:`decode_otlp_json` validates the full
schema (raising :class:`OtlpDecodeError` on any deviation) and its
inverse :func:`encode_decoded` re-encodes the decoded form — export →
decode → re-export is a fixed point on bytes, which the property tests
in ``tests/test_otlp_roundtrip.py`` enforce.  Pipeline self-metrics
export as a ``resourceMetrics`` dict (:func:`metrics_to_otlp_json`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any, Callable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import (MESSAGING_PROTOCOLS, Span, SpanKind, SpanSide,
                             Trace)

#: Scope identity stamped on every exported payload.
SCOPE_NAME = "repro.deepflow"
SCOPE_VERSION = "0.1.0"

#: OTLP enum values accepted by the decoder.
SPAN_KIND_VALUES = frozenset({
    "SPAN_KIND_SERVER", "SPAN_KIND_CLIENT", "SPAN_KIND_INTERNAL",
    "SPAN_KIND_PRODUCER", "SPAN_KIND_CONSUMER",
})
STATUS_CODE_VALUES = frozenset({
    "STATUS_CODE_UNSET", "STATUS_CODE_OK", "STATUS_CODE_ERROR",
})

#: Exact attribute keys the ``otlp-json`` exporter may emit, with their
#: OTLP value type.  ``net.host.name`` / ``http.*`` follow the OBI
#: conventions (SNIPPETS.md §1); ``deepflow.*`` carries the
#: repo-specific fields that have no standard key.
SPAN_ATTRIBUTE_CONVENTIONS: dict[str, tuple[str, str]] = {
    "net.host.name": ("string", "host the span was captured on"),
    "process.pid": ("int", "pid of the traced process"),
    "http.method": ("string", "request method, http-family spans"),
    "http.route": ("string", "request route, http-family spans"),
    "http.status_code": ("int", "response status, http-family spans"),
    "deepflow.source": ("string", "data source: ebpf / ebpf-uprobe / "
                                  "cbpf / app"),
    "deepflow.side": ("string", "vantage point: s / c / net / app"),
    "deepflow.protocol": ("string", "inferred application protocol"),
    "deepflow.operation": ("string", "operation, non-http spans"),
    "deepflow.resource": ("string", "resource, non-http spans"),
    "deepflow.status_code": ("int", "numeric status, non-http spans"),
    "deepflow.request_bytes": ("int", "request payload size"),
    "deepflow.response_bytes": ("int", "response payload size"),
}

#: Namespaced prefixes for the open-ended correlation payload (§3.4):
#: tag values export as strings, metric values as doubles.
SPAN_ATTRIBUTE_PREFIXES: dict[str, tuple[str, str]] = {
    "deepflow.tag.": ("string", "span tag from the correlation payload"),
    "deepflow.metric.": ("double", "span metric from the correlation "
                                   "payload"),
}


class OtlpDecodeError(ValueError):
    """An OTLP-shaped payload failed schema validation."""


#: Span ids are 16 hex digits on the wire, trace ids 32.
_MASK_64 = (1 << 64) - 1
_MASK_128 = (1 << 128) - 1


# ---------------------------------------------------------------------------
# Jaeger form
# ---------------------------------------------------------------------------

def span_to_jaeger(span: Span, trace_id: str) -> dict[str, Any]:
    """One span in Jaeger UI JSON form."""
    tags = [{"key": key, "type": "string", "value": str(value)}
            for key, value in sorted(span.tags.items())]
    tags.append({"key": "span.kind", "type": "string",
                 "value": span.kind.value})
    tags.append({"key": "deepflow.side", "type": "string",
                 "value": span.side.value})
    if span.status_code is not None:
        tags.append({"key": "http.status_code", "type": "int64",
                     "value": span.status_code})
    for key, value in sorted(span.metrics.items()):
        tags.append({"key": key, "type": "float64", "value": value})
    references = []
    if span.parent_id is not None:
        references.append({"refType": "CHILD_OF", "traceID": trace_id,
                           "spanID": "%016x" % (span.parent_id
                                                & _MASK_64)})
    return {
        "traceID": trace_id,
        "spanID": "%016x" % (span.span_id & _MASK_64),
        "operationName": span.endpoint or span.protocol or "span",
        "references": references,
        "startTime": int(span.start_time * 1e6),
        "duration": max(1, int(span.duration * 1e6)),
        "tags": tags,
        "processID": f"p-{span.process_name or span.device_name}",
    }


def trace_to_jaeger(trace: Trace) -> dict[str, Any]:
    """A whole trace in the Jaeger UI's ``{data: [...]}`` element form."""
    roots = trace.roots()
    trace_id = "%032x" % ((roots[0].span_id if roots else 0) & _MASK_128)
    processes = {}
    for span in trace:
        key = f"p-{span.process_name or span.device_name}"
        processes.setdefault(key, {
            "serviceName": span.process_name or span.device_name,
            "tags": [{"key": "host", "type": "string",
                      "value": span.host}],
        })
    return {
        "traceID": trace_id,
        "spans": [span_to_jaeger(span, trace_id) for span in trace],
        "processes": processes,
    }


# ---------------------------------------------------------------------------
# Canonical OTLP/JSON form
# ---------------------------------------------------------------------------

def _head(key: str, value_type: str) -> str:
    """The text of one KeyValue up to its value.  An int64 is a decimal
    string, so its head carries the opening quote and :data:`_INT_END`
    the closing one."""
    return '{"key":%s,"value":{"%sValue":%s' % (
        _quote(key), value_type, '"' if value_type == "int" else "")


_END = "}}"
_INT_END = '"}}'
_OPERATION = _head("deepflow.operation", "string")
_PROTOCOL = _head("deepflow.protocol", "string")
_REQUEST_BYTES = _head("deepflow.request_bytes", "int")
_RESOURCE = _head("deepflow.resource", "string")
_RESPONSE_BYTES = _head("deepflow.response_bytes", "int")
_STATUS_CODE = _head("deepflow.status_code", "int")
_HTTP_METHOD = _head("http.method", "string")
_HTTP_ROUTE = _head("http.route", "string")
_HTTP_STATUS_CODE = _head("http.status_code", "int")
_HOST_NAME = _head("net.host.name", "string")
_PID = _head("process.pid", "int")

#: Keyed by the enum member: the whole KeyValue of the two enum-valued
#: attributes, and the OTLP span kind as ``(plain, messaging)`` —
#: message-queue sides are producer / consumer.
_SIDE_ATTR = {side: _head("deepflow.side", "string")
              + _quote(side.value) + _END for side in SpanSide}
_SOURCE_ATTR = {kind: _head("deepflow.source", "string")
                + _quote(kind.value) + _END for kind in SpanKind}
_INTERNAL = ("SPAN_KIND_INTERNAL", "SPAN_KIND_INTERNAL")
_SPAN_KIND = {SpanSide.SERVER: ("SPAN_KIND_SERVER", "SPAN_KIND_CONSUMER"),
              SpanSide.CLIENT: ("SPAN_KIND_CLIENT", "SPAN_KIND_PRODUCER"),
              SpanSide.NETWORK: _INTERNAL, SpanSide.APP: _INTERNAL}

#: One span and one ``resourceSpans`` element as ``%`` templates over
#: encoded parts; ``%d`` truncates float nanoseconds as ``int()`` does.
_SPAN = ('{"traceId":"%s","spanId":"%016x","parentSpanId":"%s","name":%s,'
         '"kind":"%s","startTimeUnixNano":"%d","endTimeUnixNano":"%d",'
         '"attributes":[%s],"status":{"code":"%s"%s}}')
_SERVICE = (
    '{"resource":{"attributes":[' + _head("service.name", "string") + "%s"
    + _END + "," + _head("telemetry.sdk.name", "string")
    + _quote(SCOPE_NAME) + _END + ']},"scopeSpans":[{"scope":{"name":'
    + _quote(SCOPE_NAME) + ',"version":' + _quote(SCOPE_VERSION)
    + '},"spans":[%s]}]}')


@lru_cache(maxsize=256)
def _key_order(prefix: str, keys: tuple) -> Optional[tuple[tuple, ...]]:
    """``(key, head of the prefixed key's KeyValue)`` per key, ascending
    by prefixed key: the order a tag or metric block exports in, memoized
    per key tuple (one pod's spans carry the same keys in the same
    insertion order).  ``None`` when a key is not a plain ``str`` —
    ``(1,)`` and ``(True,)`` are one cache key but format differently,
    ``1`` and ``"1"`` format alike — so that dict goes through
    :func:`_loose_key_order`."""
    for key in keys:
        if key.__class__ is not str:
            return None
    value_type = SPAN_ATTRIBUTE_PREFIXES[prefix][0]
    return tuple([(key, _head(prefix + key, value_type))
                  for key in sorted(keys)])


def _loose_key_order(prefix: str, mapping: dict,
                     exported: Callable[[Any], Any]) -> list[tuple]:
    """Uncached :func:`_key_order`: keys formatting alike order by value."""
    value_type = SPAN_ATTRIBUTE_PREFIXES[prefix][0]
    return [(key, _head(f"{prefix}{key}", value_type)) for key in sorted(
        mapping, key=lambda key: (f"{prefix}{key}", exported(mapping[key])))]


def _span_json(span: Span, trace_hex: str) -> str:
    """One span as OTLP/JSON text, attributes in ascending key order.

    The key space (:data:`SPAN_ATTRIBUTE_CONVENTIONS` and the
    :data:`SPAN_ATTRIBUTE_PREFIXES` namespaces) is statically ordered —
    ``deepflow.metric.*`` < ``deepflow.operation`` …
    ``deepflow.status_code`` < ``deepflow.tag.*`` < ``http.*`` <
    ``net.host.name`` < ``process.pid`` — so the statements below follow
    it and only the two open-ended blocks consult :func:`_key_order`.
    Int64 values are decimal strings; non-finite metrics are dropped and
    the rest written as ``json`` writes an exact ``float``, by ``repr``.
    """
    attrs: list[str] = []
    append = attrs.append
    metrics = span.metrics
    if metrics:
        for key, head in (_key_order("deepflow.metric.", tuple(metrics))
                          or _loose_key_order("deepflow.metric.", metrics,
                                              float)):
            value = float(metrics[key])
            if isfinite(value):
                append(head + repr(value) + _END)
    protocol = span.protocol
    operation = span.operation
    resource = span.resource
    status_code = span.status_code
    http_family = protocol.startswith("http") or protocol == "grpc"
    if operation and not http_family:
        append(_OPERATION + _quote(str(operation)) + _END)
    if protocol:
        append(_PROTOCOL + _quote(str(protocol)) + _END)
    if span.request_bytes:
        append(_REQUEST_BYTES + str(int(span.request_bytes)) + _INT_END)
    if resource and not http_family:
        append(_RESOURCE + _quote(str(resource)) + _END)
    if span.response_bytes:
        append(_RESPONSE_BYTES + str(int(span.response_bytes)) + _INT_END)
    side = span.side
    append(_SIDE_ATTR[side])
    append(_SOURCE_ATTR[span.kind])
    if status_code is not None and not http_family:
        append(_STATUS_CODE + str(int(status_code)) + _INT_END)
    tags = span.tags
    if tags:
        for key, head in (_key_order("deepflow.tag.", tuple(tags))
                          or _loose_key_order("deepflow.tag.", tags, str)):
            append(head + _quote(str(tags[key])) + _END)
    if http_family:
        if operation:
            append(_HTTP_METHOD + _quote(str(operation)) + _END)
        if resource:
            append(_HTTP_ROUTE + _quote(str(resource)) + _END)
        if status_code is not None:
            append(_HTTP_STATUS_CODE + str(int(status_code)) + _INT_END)
    if span.host:
        append(_HOST_NAME + _quote(str(span.host)) + _END)
    if span.pid:
        append(_PID + str(int(span.pid)) + _INT_END)
    parent_id = span.parent_id
    if span.is_error:
        code = "STATUS_CODE_ERROR"
        message = ',"message":' + _quote(
            str(tags.get("error.kind", "")) or "error")
    else:
        code = "STATUS_CODE_OK" if span.status else "STATUS_CODE_UNSET"
        message = ""
    return _SPAN % (
        trace_hex, span.span_id & _MASK_64,
        "" if parent_id is None else "%016x" % (parent_id & _MASK_64),
        _quote(span.endpoint or protocol or "span"),
        _SPAN_KIND[side][protocol in MESSAGING_PROTOCOLS],
        span.start_time * 1e9, span.end_time * 1e9,
        ",".join(attrs), code, message)


def trace_to_otlp_json(trace: Trace) -> str:
    """A whole trace as canonical OTLP/JSON ``resourceSpans`` text,
    grouped by service: byte for byte ``json.dumps(payload,
    separators=(",", ":"))`` of the payload tree, written in one pass
    from :class:`Span` without building it.  A consumer that wants the
    tree calls ``json.loads``."""
    roots = trace.roots()
    trace_hex = "%032x" % ((roots[0].span_id if roots else 0) & _MASK_128)
    groups: dict[str, list[str]] = defaultdict(list)
    for span in trace:
        groups[span.process_name or span.device_name or span.host
               or "unknown"].append(_span_json(span, trace_hex))
    return '{"resourceSpans":[%s]}' % ",".join([
        _SERVICE % (_quote(service), ",".join(groups[service]))
        for service in sorted(groups)])


#: Decoded value type → (OTLP value field, canonical conversion).
_VALUE_FIELDS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "string": ("stringValue", str),
    "int": ("intValue", lambda value: str(int(value))),
    "double": ("doubleValue", float),
    "bool": ("boolValue", bool),
}


def _encode_attrs(attrs: list[tuple[str, str, Any]]) -> list[dict]:
    """OTLP KeyValues for decoded ``(key, value_type, value)`` tuples."""
    out = []
    for key, value_type, value in attrs:
        if value_type not in _VALUE_FIELDS:
            raise ValueError(f"unknown attribute value type {value_type!r}")
        field, convert = _VALUE_FIELDS[value_type]
        out.append({"key": key, "value": {field: convert(value)}})
    return out


def encode_decoded(decoded: dict[str, Any]) -> str:
    """The inverse of :func:`decode_otlp_json`: for any payload text *p*
    this module produced, ``encode_decoded(decode_otlp_json(p)) == p`` —
    the byte fixed point the round-trip property checks."""
    resource_spans = []
    for resource in decoded["resources"]:
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
        scope_name, scope_version = resource["scope"]
        resource_spans.append({
            "resource": {"attributes": _encode_attrs(
                resource["attributes"])},
            "scopeSpans": [{"scope": {"name": scope_name,
                                      "version": scope_version},
                            "spans": spans}]})
    return json.dumps({"resourceSpans": resource_spans},
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Schema-validating decoder
# ---------------------------------------------------------------------------

def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook``: a repeated key is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise OtlpDecodeError("payload repeats an object key")
    return obj


def _load_json(payload: Any) -> Any:
    """Parse a payload given as JSON text; a parsed tree passes through."""
    if not isinstance(payload, (str, bytes)):
        return payload
    try:
        return json.loads(payload, object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OtlpDecodeError(f"payload is not JSON: {exc}") from None


def _expect_mapping(obj: Any, required: tuple[str, ...],
                    optional: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise OtlpDecodeError(f"{where}: expected an object, got "
                              f"{type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise OtlpDecodeError(f"{where}: missing {sorted(missing)}")
    extra = keys - set(required) - set(optional)
    if extra:
        raise OtlpDecodeError(f"{where}: unexpected {sorted(extra)}")


def _expect_hex(value: Any, width: int, where: str,
                empty_ok: bool = False) -> str:
    if not isinstance(value, str):
        raise OtlpDecodeError(f"{where}: id must be a string")
    if value == "" and empty_ok:
        return value
    if len(value) != width or any(c not in "0123456789abcdef"
                                  for c in value):
        raise OtlpDecodeError(f"{where}: expected {width} lowercase hex "
                              f"chars, got {value!r}")
    return value


def _expect_int64(value: Any, where: str) -> int:
    """proto3 JSON int64: a canonical decimal string."""
    if not isinstance(value, str):
        raise OtlpDecodeError(f"{where}: int64 must be a decimal string")
    try:
        parsed = int(value)
    except ValueError:
        raise OtlpDecodeError(f"{where}: bad int64 {value!r}") from None
    if str(parsed) != value:
        raise OtlpDecodeError(f"{where}: non-canonical int64 {value!r}")
    return parsed


def _decode_attrs(items: Any, where: str) -> list[tuple[str, str, Any]]:
    if not isinstance(items, list):
        raise OtlpDecodeError(f"{where}: attributes must be a list")
    out: list[tuple[str, str, Any]] = []
    previous: Optional[str] = None
    for position, item in enumerate(items):
        slot = f"{where}[{position}]"
        _expect_mapping(item, ("key", "value"), (), slot)
        key = item["key"]
        if not isinstance(key, str):
            raise OtlpDecodeError(f"{slot}: key must be a string")
        if previous is not None and key <= previous:
            raise OtlpDecodeError(f"{slot}: keys must be strictly "
                                  f"ascending ({key!r} after "
                                  f"{previous!r})")
        previous = key
        value = item["value"]
        if not isinstance(value, dict) or len(value) != 1:
            raise OtlpDecodeError(f"{slot}: value must hold exactly one "
                                  f"typed field")
        (field, payload), = value.items()
        if field == "stringValue":
            if not isinstance(payload, str):
                raise OtlpDecodeError(f"{slot}: stringValue must be a "
                                      f"string")
            out.append((key, "string", payload))
        elif field == "intValue":
            out.append((key, "int", _expect_int64(payload, slot)))
        elif field == "doubleValue":
            if isinstance(payload, bool) \
                    or not isinstance(payload, (int, float)) \
                    or not isfinite(payload):
                raise OtlpDecodeError(f"{slot}: doubleValue must be a "
                                      f"finite number")
            out.append((key, "double", float(payload)))
        elif field == "boolValue":
            if not isinstance(payload, bool):
                raise OtlpDecodeError(f"{slot}: boolValue must be a bool")
            out.append((key, "bool", payload))
        else:
            raise OtlpDecodeError(f"{slot}: unknown value type {field!r}")
    return out


def _decode_span(obj: Any, where: str) -> dict[str, Any]:
    _expect_mapping(obj, ("traceId", "spanId", "parentSpanId", "name",
                          "kind", "startTimeUnixNano",
                          "endTimeUnixNano", "attributes", "status"),
                    (), where)
    trace_id = _expect_hex(obj["traceId"], 32, f"{where}.traceId")
    span_id = _expect_hex(obj["spanId"], 16, f"{where}.spanId")
    parent = _expect_hex(obj["parentSpanId"], 16,
                         f"{where}.parentSpanId", empty_ok=True)
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise OtlpDecodeError(f"{where}.name: must be a non-empty string")
    if obj["kind"] not in SPAN_KIND_VALUES:
        raise OtlpDecodeError(f"{where}.kind: unknown kind "
                              f"{obj['kind']!r}")
    start_ns = _expect_int64(obj["startTimeUnixNano"],
                             f"{where}.startTimeUnixNano")
    end_ns = _expect_int64(obj["endTimeUnixNano"],
                           f"{where}.endTimeUnixNano")
    if end_ns < start_ns:
        raise OtlpDecodeError(f"{where}: endTimeUnixNano precedes "
                              f"startTimeUnixNano")
    status = obj["status"]
    _expect_mapping(status, ("code",), ("message",), f"{where}.status")
    if status["code"] not in STATUS_CODE_VALUES:
        raise OtlpDecodeError(f"{where}.status.code: unknown code "
                              f"{status['code']!r}")
    message = status.get("message")
    if message is not None and not isinstance(message, str):
        raise OtlpDecodeError(f"{where}.status.message: must be a "
                              f"string")
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_span_id": parent,
        "name": obj["name"],
        "kind": obj["kind"],
        "start_ns": start_ns,
        "end_ns": end_ns,
        "status_code": status["code"],
        "status_message": message,
        "attributes": _decode_attrs(obj["attributes"],
                                    f"{where}.attributes"),
    }


def decode_otlp_json(payload: Any) -> dict[str, Any]:
    """Validate an ``otlp-json`` payload and return the decoded form.

    Accepts the payload's JSON text (what :func:`trace_to_otlp_json`
    returns) or the tree it parses to.  Raises :class:`OtlpDecodeError`
    on any schema deviation: text that is not JSON or repeats an object
    key, wrong key sets, malformed ids, non-canonical int64 strings,
    unsorted attribute keys, unknown enum values, or inverted time
    ranges.
    """
    payload = _load_json(payload)
    _expect_mapping(payload, ("resourceSpans",), (), "payload")
    if not isinstance(payload["resourceSpans"], list):
        raise OtlpDecodeError("resourceSpans must be a list")
    resources = []
    for index, entry in enumerate(payload["resourceSpans"]):
        where = f"resourceSpans[{index}]"
        _expect_mapping(entry, ("resource", "scopeSpans"), (), where)
        _expect_mapping(entry["resource"], ("attributes",), (),
                        f"{where}.resource")
        resource_attrs = _decode_attrs(entry["resource"]["attributes"],
                                       f"{where}.resource.attributes")
        scope_spans = entry["scopeSpans"]
        if not isinstance(scope_spans, list) or len(scope_spans) != 1:
            raise OtlpDecodeError(f"{where}.scopeSpans: expected exactly "
                                  f"one scope")
        scope_entry = scope_spans[0]
        _expect_mapping(scope_entry, ("scope", "spans"), (),
                        f"{where}.scopeSpans[0]")
        scope = scope_entry["scope"]
        _expect_mapping(scope, ("name", "version"), (),
                        f"{where}.scopeSpans[0].scope")
        if not isinstance(scope["name"], str) \
                or not isinstance(scope["version"], str):
            raise OtlpDecodeError(f"{where}: scope name/version must be "
                                  f"strings")
        spans_obj = scope_entry["spans"]
        if not isinstance(spans_obj, list):
            raise OtlpDecodeError(f"{where}.scopeSpans[0].spans: must "
                                  f"be a list")
        spans = [
            _decode_span(span, f"{where}.scopeSpans[0].spans[{i}]")
            for i, span in enumerate(spans_obj)
        ]
        resources.append({
            "attributes": resource_attrs,
            "scope": (scope["name"], scope["version"]),
            "spans": spans,
        })
    return {"resources": resources}


# ---------------------------------------------------------------------------
# Pipeline self-metrics in the matching OTLP shape
# ---------------------------------------------------------------------------

def metrics_to_otlp_json(metrics: PipelineMetrics,
                         now: float) -> dict[str, Any]:
    """Every registered instrument as an OTLP ``resourceMetrics``
    payload, stamped with sim time *now* (seconds)."""
    now_ns = str(int(now * 1e9))
    entries = []
    for instrument in metrics.instruments():
        entry: dict[str, Any] = {"name": instrument.name}
        if instrument.description:
            entry["description"] = instrument.description
        if instrument.kind == "counter":
            entry["sum"] = {
                "aggregationTemporality":
                    "AGGREGATION_TEMPORALITY_CUMULATIVE",
                "isMonotonic": True,
                "dataPoints": [{
                    "startTimeUnixNano": "0",
                    "timeUnixNano": now_ns,
                    "asInt": str(instrument.value),
                }],
            }
        elif instrument.kind == "gauge":
            entry["gauge"] = {
                "dataPoints": [{
                    "timeUnixNano": now_ns,
                    "asDouble": float(instrument.value),
                }],
            }
        else:
            entry["histogram"] = {
                "aggregationTemporality":
                    "AGGREGATION_TEMPORALITY_CUMULATIVE",
                "dataPoints": [{
                    "startTimeUnixNano": "0",
                    "timeUnixNano": now_ns,
                    "count": str(instrument.count),
                    "sum": instrument.sum,
                    "max": instrument.max,
                    "bucketCounts": [str(c) for c in instrument.counts],
                    "explicitBounds": list(instrument.bounds),
                }],
            }
        entries.append(entry)
    return {
        "resourceMetrics": [{
            "resource": {
                "attributes": _encode_attrs(
                    [("service.name", "string", metrics.service),
                     ("telemetry.sdk.name", "string", SCOPE_NAME)]),
            },
            "scopeMetrics": [{
                "scope": {"name": SCOPE_NAME, "version": SCOPE_VERSION},
                "metrics": entries,
            }],
        }],
    }


def decode_otlp_metrics(payload: Any) -> dict[str, dict[str, Any]]:
    """Validate a ``resourceMetrics`` payload; return name → summary.

    Counters report ``{"kind": "counter", "value": int}``, gauges their
    float value, histograms count/sum/buckets.  Raises
    :class:`OtlpDecodeError` on shape violations.
    """
    payload = _load_json(payload)
    _expect_mapping(payload, ("resourceMetrics",), (), "payload")
    out: dict[str, dict[str, Any]] = {}
    if not isinstance(payload["resourceMetrics"], list):
        raise OtlpDecodeError("resourceMetrics must be a list")
    for index, entry in enumerate(payload["resourceMetrics"]):
        where = f"resourceMetrics[{index}]"
        _expect_mapping(entry, ("resource", "scopeMetrics"), (), where)
        _expect_mapping(entry["resource"], ("attributes",), (),
                        f"{where}.resource")
        _decode_attrs(entry["resource"]["attributes"],
                      f"{where}.resource.attributes")
        for scope_entry in entry["scopeMetrics"]:
            _expect_mapping(scope_entry, ("scope", "metrics"), (),
                            f"{where}.scopeMetrics")
            for metric in scope_entry["metrics"]:
                _expect_mapping(metric, ("name",),
                                ("description", "sum", "gauge",
                                 "histogram"),
                                f"{where}.metrics")
                name = metric["name"]
                slot = f"{where}.metrics[{name}]"
                bodies = [k for k in ("sum", "gauge", "histogram")
                          if k in metric]
                if len(bodies) != 1:
                    raise OtlpDecodeError(f"{slot}: expected exactly one "
                                          f"of sum/gauge/histogram")
                body = metric[bodies[0]]
                points = body.get("dataPoints")
                if not isinstance(points, list) or len(points) != 1:
                    raise OtlpDecodeError(f"{slot}: expected one data "
                                          f"point")
                point = points[0]
                if bodies[0] == "sum":
                    out[name] = {
                        "kind": "counter",
                        "value": _expect_int64(point["asInt"],
                                               f"{slot}.asInt"),
                    }
                elif bodies[0] == "gauge":
                    out[name] = {"kind": "gauge",
                                 "value": float(point["asDouble"])}
                else:
                    counts = [_expect_int64(c, f"{slot}.bucketCounts")
                              for c in point["bucketCounts"]]
                    bounds = point["explicitBounds"]
                    if len(counts) != len(bounds) + 1:
                        raise OtlpDecodeError(
                            f"{slot}: bucketCounts must have one more "
                            f"entry than explicitBounds")
                    out[name] = {
                        "kind": "histogram",
                        "count": _expect_int64(point["count"],
                                               f"{slot}.count"),
                        "sum": float(point["sum"]),
                        "buckets": counts,
                    }
    return out


# ---------------------------------------------------------------------------
# Streaming exporter sink
# ---------------------------------------------------------------------------

class OtlpStreamExporter:
    """Collects OTLP-shaped payloads from the continuous pipeline.

    Stands in for an OTLP/HTTP push endpoint: the continuous assembler
    hands it every finished trace, and tests/benches read the request
    bodies (OTLP/JSON text) back from ``trace_payloads`` and check them
    with :func:`decode_otlp_json` where they read them.
    ``keep_payloads=False`` counts without keeping (throughput benches).
    """

    def __init__(self, *, keep_payloads: bool = True) -> None:
        self.keep_payloads = keep_payloads
        self.trace_payloads: list[str] = []
        self.exported_traces = 0
        self.exported_spans = 0

    def export_trace(self, trace: Trace) -> str:
        """Encode and record one finished trace; returns its text."""
        payload = trace_to_otlp_json(trace)
        if self.keep_payloads:
            self.trace_payloads.append(payload)
        self.exported_traces += 1
        self.exported_spans += len(trace)
        return payload

    def stats(self) -> dict[str, int]:
        """Exporter-side counters for pipeline_stats()."""
        return {
            "exported_traces": self.exported_traces,
            "exported_spans": self.exported_spans,
        }
