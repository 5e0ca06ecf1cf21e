"""Property tests on the canonical OTLP/JSON export form.

Three invariants the continuous pipeline leans on, checked over
adversarial span populations:

* **Byte identity.**  The one-pass encoder emits exactly what the
  two-pass encoder it replaced did (``tests/otlp_two_pass_oracle.py``
  keeps that one as the oracle), key order, dropped metrics and
  off-annotation tag keys included.
* **Fixed point.**  ``export -> decode -> re-export`` must reproduce
  the original payload byte-for-byte (after JSON round-trip), so a
  downstream consumer that validates-then-forwards is lossless.
* **Attribute conventions.**  Every exported attribute key is either an
  exact entry of :data:`repro.core.export.SPAN_ATTRIBUTE_CONVENTIONS`
  or namespaced under :data:`repro.core.export.SPAN_ATTRIBUTE_PREFIXES`
  with the declared value type — no unreviewed keys can leak into the
  export surface.

Plus deterministic negative tests: corrupted payloads must fail the
schema decoder with :class:`repro.core.export.OtlpDecodeError`, never
decode loosely.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.export import (
    OtlpDecodeError,
    SPAN_ATTRIBUTE_CONVENTIONS,
    SPAN_ATTRIBUTE_PREFIXES,
    SPAN_KIND_VALUES,
    STATUS_CODE_VALUES,
    decode_otlp_json,
    decode_otlp_metrics,
    encode_decoded,
    metrics_to_otlp_json,
    trace_to_otlp_json,
)
from repro.core.ids import IdAllocator
from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, SpanKind, SpanSide, Trace
from repro.server.assembler import assign_parents
from tests.otlp_two_pass_oracle import (decompose_trace,
                                        two_pass_trace_to_otlp_json)

_ids = IdAllocator(13)

#: Keys outside the ``dict[str, ...]`` annotation: they bypass the
#: encoder's key-order memo, and with digits in the text alphabet two
#: of them can format alike (``1`` and ``"1"``).
_LOOSE_KEYS = st.one_of(st.integers(min_value=0, max_value=3),
                        st.booleans(), st.none(),
                        st.text(alphabet="01a._-", min_size=1, max_size=3))


@st.composite
def export_span(draw, loose_keys=False):
    """A span exercising every branch of the attribute builder.

    With *loose_keys* the tag and metric dicts also draw non-``str``
    and colliding keys; the strict decoder rejects what those export to
    (duplicate attribute keys), so only the byte-identity property
    asks for them.
    """
    side = draw(st.sampled_from([SpanSide.CLIENT, SpanSide.SERVER,
                                 SpanSide.NETWORK, SpanSide.APP]))
    kind = draw(st.sampled_from(list(SpanKind)))
    start = draw(st.floats(min_value=0.0, max_value=100.0,
                           allow_nan=False))
    duration = draw(st.floats(min_value=0.0, max_value=2.0,
                              allow_nan=False))
    protocol = draw(st.sampled_from(
        ["", "http", "http2", "grpc", "mysql", "redis", "dns",
         "amqp", "kafka", "mqtt"]))
    status = draw(st.sampled_from(["", "ok", "error"]))
    tag_keys = st.text(alphabet="abcdefghijk._-", min_size=1, max_size=8)
    metric_keys = st.text(alphabet="lmnopqrstuv._-", min_size=1,
                          max_size=8)
    if loose_keys:
        tag_keys = st.one_of(tag_keys, _LOOSE_KEYS)
        metric_keys = st.one_of(metric_keys, _LOOSE_KEYS)
    tags = draw(st.dictionaries(
        tag_keys,
        st.one_of(st.text(max_size=12), st.integers(), st.none(),
                  st.booleans(), st.floats()), max_size=4))
    # NaN and the infinities are dropped at export, never encoded.
    metrics = draw(st.dictionaries(
        metric_keys,
        st.one_of(st.floats(width=32), st.floats(),
                  st.integers(min_value=-10, max_value=10),
                  st.booleans()), max_size=4))
    if status == "error" and draw(st.booleans()):
        tags["error.kind"] = draw(st.sampled_from(
            ["timeout", "reset", ""]))
    return Span(
        span_id=_ids.next_id(),
        kind=kind, side=side,
        start_time=start, end_time=start + duration,
        host=draw(st.sampled_from(["", "node-1", "node-2"])),
        process_name=draw(st.sampled_from(["", "svc-a", "svc-b"])),
        pid=draw(st.integers(min_value=0, max_value=1 << 20)),
        device_name=draw(st.sampled_from(["", "eth0"])),
        protocol=protocol,
        operation=draw(st.sampled_from(["", "GET", "SELECT"])),
        resource=draw(st.sampled_from(["", "/api/items", "orders"])),
        status=status,
        status_code=draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=599))),
        request_bytes=draw(st.integers(min_value=0, max_value=1 << 30)),
        response_bytes=draw(st.integers(min_value=0, max_value=1 << 30)),
        systrace_id=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=5))),
        x_request_id=draw(st.one_of(
            st.none(), st.sampled_from(["x1", "x2"]))),
        tags=tags, metrics=metrics,
    )


def _assembled_trace(spans):
    assign_parents(spans)
    return Trace(spans)


class TestRoundTripProperties:
    @given(spans=st.lists(st.one_of(export_span(),
                                    export_span(loose_keys=True)),
                          min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_encoder_matches_two_pass_oracle(self, spans):
        trace = _assembled_trace(spans)
        assert json.dumps(trace_to_otlp_json(trace)) \
            == json.dumps(two_pass_trace_to_otlp_json(trace))

    @given(spans=st.lists(export_span(), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_export_decode_reexport_fixed_point(self, spans):
        trace = _assembled_trace(spans)
        payload = trace_to_otlp_json(trace)
        # The wire form must survive JSON serialization untouched.
        wire = json.loads(json.dumps(payload))
        decoded = decode_otlp_json(wire)
        assert encode_decoded(decoded) == payload
        # And the decoded structure is exactly the typed form the
        # two-pass encoder went through — decode is the inverse of
        # encode, not a lossy projection.
        assert decoded == decompose_trace(trace)

    @given(spans=st.lists(export_span(), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_attribute_keys_follow_conventions(self, spans):
        decoded = decode_otlp_json(
            trace_to_otlp_json(_assembled_trace(spans)))
        exported = [span for resource in decoded["resources"]
                    for span in resource["spans"]]
        assert len(exported) == len(spans)
        for span in exported:
            attrs = span["attributes"]
            keys = [key for key, _type, _value in attrs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for key, value_type, value in attrs:
                if key in SPAN_ATTRIBUTE_CONVENTIONS:
                    expected = SPAN_ATTRIBUTE_CONVENTIONS[key][0]
                else:
                    prefix = next(
                        (p for p in SPAN_ATTRIBUTE_PREFIXES
                         if key.startswith(p)), None)
                    assert prefix is not None, \
                        f"unreviewed attribute key {key!r}"
                    expected = SPAN_ATTRIBUTE_PREFIXES[prefix][0]
                assert value_type == expected
                assert isinstance(
                    value, {"string": str, "int": int,
                            "double": float}[value_type])

    @given(spans=st.lists(export_span(), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_payload_schema_invariants(self, spans):
        trace = _assembled_trace(spans)
        payload = trace_to_otlp_json(trace)
        seen = 0
        for resource in payload["resourceSpans"]:
            for scope in resource["scopeSpans"]:
                for span in scope["spans"]:
                    seen += 1
                    assert len(span["traceId"]) == 32
                    assert len(span["spanId"]) == 16
                    assert span["parentSpanId"] == "" \
                        or len(span["parentSpanId"]) == 16
                    assert span["kind"] in SPAN_KIND_VALUES
                    assert span["status"]["code"] in STATUS_CODE_VALUES
                    start = int(span["startTimeUnixNano"])
                    assert int(span["endTimeUnixNano"]) >= start
        assert seen == len(spans)


def _first_span(payload):
    return payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]


class TestOnePassEncoder:
    def test_keys_that_format_alike_order_by_exported_value(self):
        span = Span(span_id=7, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
                    start_time=1.0, end_time=2.0, protocol="mysql",
                    tags={1: "b", "1": "a", "x": None},
                    metrics={2: 1.0, "2": -1.0, 1: float("nan"), "1": 2,
                             None: 1.5, "None": float("inf")})
        trace = Trace([span])
        payload = trace_to_otlp_json(trace)
        assert json.dumps(payload) \
            == json.dumps(two_pass_trace_to_otlp_json(trace))
        attrs = [(attr["key"], *attr["value"].values())
                 for attr in _first_span(payload)["attributes"]]
        assert attrs[:4] == [("deepflow.metric.1", 2.0),
                             ("deepflow.metric.2", -1.0),
                             ("deepflow.metric.2", 1.0),
                             ("deepflow.metric.None", 1.5)]
        assert attrs[-3:] == [("deepflow.tag.1", "a"),
                              ("deepflow.tag.1", "b"),
                              ("deepflow.tag.x", "None")]

    def test_key_order_memo_skips_non_str_keys_and_is_bounded(self):
        from repro.core.export import _key_order
        assert _key_order("deepflow.tag.", ("b", "a")) == (
            ("a", "deepflow.tag.a"), ("b", "deepflow.tag.b"))
        # (1,) == (True,) as cache keys but format differently.
        assert _key_order("deepflow.tag.", (1,)) is None
        assert _key_order("deepflow.tag.", (True, "a")) is None
        assert _key_order.cache_info().maxsize == 256

    def test_more_key_tuples_than_the_memo_holds(self):
        from repro.core.export import _key_order
        cap = _key_order.cache_info().maxsize
        spans = [Span(span_id=i + 1, kind=SpanKind.SYSCALL,
                      side=SpanSide.SERVER, start_time=1.0, end_time=2.0,
                      tags={f"k{i}": "v", "a": "w"}, metrics={f"m{i}": 1.0})
                 for i in range(cap + 40)]
        trace = Trace(spans + spans[:40])      # evicted entries refill
        assert json.dumps(trace_to_otlp_json(trace)) \
            == json.dumps(two_pass_trace_to_otlp_json(trace))
        assert _key_order.cache_info().currsize == cap

    def test_unknown_decoded_value_type_is_a_value_error(self):
        decoded = decode_otlp_json(trace_to_otlp_json(Trace([Span(
            span_id=7, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
            start_time=1.0, end_time=2.0)])))
        decoded["resources"][0]["spans"][0]["attributes"].append(
            ("zz", "bytes", b"x"))
        with pytest.raises(ValueError, match="unknown attribute value "
                                             "type 'bytes'"):
            encode_decoded(decoded)

    def test_payload_shares_no_mutable_state_between_spans(self):
        spans = [Span(span_id=i, kind=SpanKind.SYSCALL,
                      side=SpanSide.SERVER, start_time=1.0, end_time=2.0,
                      process_name="svc", tags={"pod": "p"},
                      metrics={"rtt": 0.5}) for i in (1, 2)]
        payload = trace_to_otlp_json(Trace(spans))
        first, second = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        for mine, theirs in zip(first["attributes"], second["attributes"]):
            assert mine == theirs
            assert mine is not theirs
            assert mine["value"] is not theirs["value"]


@pytest.fixture()
def valid_payload():
    span = Span(span_id=7, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
                start_time=1.0, end_time=2.0, host="n1",
                process_name="svc", protocol="http", operation="GET",
                resource="/", status="ok", status_code=200,
                tags={"pod": "p1"}, metrics={"rtt": 0.5})
    assign_parents([span])
    return trace_to_otlp_json(Trace([span]))


class TestDecoderRejections:
    """Every corruption class must raise OtlpDecodeError."""

    def _reject(self, payload):
        with pytest.raises(OtlpDecodeError):
            decode_otlp_json(payload)

    def test_valid_payload_decodes(self, valid_payload):
        decode_otlp_json(valid_payload)
        decode_otlp_json(json.dumps(valid_payload))

    def test_not_json(self):
        self._reject("{not json")

    def test_unexpected_top_level_key(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        bad["extra"] = 1
        self._reject(bad)

    def test_uppercase_hex_id(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["spanId"] = "000000000000000A"
        self._reject(bad)

    def test_short_trace_id(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["traceId"] = "abc"
        self._reject(bad)

    def test_int64_as_number(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["startTimeUnixNano"] = 10 ** 9
        self._reject(bad)

    def test_non_canonical_int64(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["startTimeUnixNano"] = "0001"
        self._reject(bad)

    def test_end_before_start(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["endTimeUnixNano"] = "0"
        self._reject(bad)

    def test_unknown_span_kind(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["kind"] = "SPAN_KIND_BANANA"
        self._reject(bad)

    def test_unknown_status_code(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["status"]["code"] = "STATUS_CODE_MAYBE"
        self._reject(bad)

    def test_unsorted_attribute_keys(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        attrs = _first_span(bad)["attributes"]
        attrs[0], attrs[-1] = attrs[-1], attrs[0]
        self._reject(bad)

    def test_attribute_with_two_typed_values(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["attributes"][0]["value"] = {
            "stringValue": "x", "intValue": "1"}
        self._reject(bad)

    def test_non_finite_double(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        _first_span(bad)["attributes"].append(
            {"key": "zzz", "value": {"doubleValue": float("inf")}})
        self._reject(bad)

    def test_missing_span_field(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        del _first_span(bad)["status"]
        self._reject(bad)

    def test_two_scopes_rejected(self, valid_payload):
        bad = copy.deepcopy(valid_payload)
        scopes = bad["resourceSpans"][0]["scopeSpans"]
        scopes.append(copy.deepcopy(scopes[0]))
        self._reject(bad)


class TestMetricsRoundTrip:
    def test_metrics_payload_decodes_to_registry_values(self):
        registry = PipelineMetrics()
        registry.counter("a.count").inc(41)
        registry.counter("a.count").inc()
        registry.gauge("b.level").set(2.5)
        hist = registry.histogram("c.lag_s")
        for value in (0.001, 0.002, 0.5, 90.0):
            hist.observe(value)
        payload = metrics_to_otlp_json(registry, now=12.5)
        summary = decode_otlp_metrics(json.loads(json.dumps(payload)))
        assert summary["a.count"] == {"kind": "counter", "value": 42}
        assert summary["b.level"] == {"kind": "gauge", "value": 2.5}
        hist_summary = summary["c.lag_s"]
        assert hist_summary["kind"] == "histogram"
        assert hist_summary["count"] == 4
        assert hist_summary["sum"] == pytest.approx(90.503)
        assert sum(hist_summary["buckets"]) == 4

    def test_corrupt_metrics_payload_rejected(self):
        registry = PipelineMetrics()
        registry.counter("a.count").inc()
        payload = metrics_to_otlp_json(registry, now=1.0)
        entry = payload["resourceMetrics"][0]["scopeMetrics"][0]
        entry["metrics"][0]["sum"]["dataPoints"][0]["asInt"] = 1
        with pytest.raises(OtlpDecodeError):
            decode_otlp_metrics(payload)
