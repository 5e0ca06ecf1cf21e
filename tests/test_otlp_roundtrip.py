"""Property tests on the canonical OTLP/JSON export form.

Three invariants the continuous pipeline leans on, checked over
adversarial span populations:

* **Byte identity.**  The encoder writes OTLP/JSON text straight from
  :class:`Span`; that text is exactly ``json.dumps(payload,
  separators=(",", ":"))`` of the payload dict the two-pass encoder
  built (``tests/otlp_two_pass_oracle.py`` keeps that one as the
  oracle), key order, dropped metrics, off-annotation tag keys and
  every escape included.  The text stream of two whole scenarios is
  pinned by SHA-256, computed that way at the last commit that built
  the dict.
* **Fixed point.**  ``export -> decode -> re-export`` must reproduce
  the original payload text byte-for-byte, so a downstream consumer
  that validates-then-forwards is lossless.
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
import hashlib
import json
import pickle
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import springboot
from repro.apps.loadgen import LoadGenerator
from repro.apps.proxy import NginxProxy
from repro.apps.runtime import HttpService, Response
from repro.core.export import (
    OtlpDecodeError,
    OtlpStreamExporter,
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
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.assembler import assign_parents
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator
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


#: Tag values that compare equal yet export apart by ``str()``: a tag
#: memo keyed by value would hand one the other's text.
_LOOK_ALIKE_TAG_VALUES = [0, False, 0.0, -0.0, 1, True, 1.0, "1"]

#: Metric keys and values whose exported text the block memo must not
#: confuse, in look-alike groups.  ``(1,)``, ``(True,)`` and ``(1.0,)``
#: are one tuple but export apart; ``0.0`` / ``-0.0`` are equal but
#: export apart, ``1`` / ``True`` / ``1.0`` export alike; the non-finite
#: values export nothing; ``str`` values (which ``float()`` parses)
#: bypass the memo's packed key; ``2**53 + 1`` rounds to its neighbour.
_BLOCK_METRIC_KEYS = [("rtt",), ("srt",), ("retrans",), (1, True, 1.0),
                      (0, False)]
_BLOCK_METRIC_VALUES = [(0.0, -0.0, 0), (1, True, 1.0),
                        (float("nan"), float("inf"), float("-inf")),
                        (2.5, "2.5", "-0.0"),
                        ((1 << 53) + 1, float(1 << 53))]


def _block_span(tags, metrics, error=False):
    return Span(span_id=_ids.next_id(), kind=SpanKind.SYSCALL,
                side=SpanSide.SERVER, start_time=1.0, end_time=2.0,
                process_name="svc", status="error" if error else "ok",
                tags=tags, metrics=metrics)


@st.composite
def shared_block_traces(draw):
    """Trace shapes over a few shared read-only tag maps and a few
    metric sets, as an exporter sees stored spans: ``(tag maps, the
    re-registered content of map 0, metric sets, shapes, index of the
    trace the re-registration lands before)``.  Two to four metric sets
    draw each slot's key and value from one look-alike group, so blocks
    that look equal meet.  A shape is one trace: ``(tag map index,
    metric set index, is error)`` per span, where the index one past
    the maps means a plain ``dict`` of map 0's content."""
    look_alike = st.sampled_from(_LOOK_ALIKE_TAG_VALUES)
    tag_values = st.one_of(look_alike, st.text(max_size=6), st.integers(),
                           st.none())
    tag_keys = st.sampled_from(["ip", "pod", "vpc", "a.b", "x-y"])
    # Map 0 and its re-registered content are look-alikes: equal as
    # values, often apart as text.
    tag_maps = [draw(st.dictionaries(tag_keys, look_alike, min_size=1,
                                     max_size=2)),
                *draw(st.lists(st.dictionaries(tag_keys, tag_values,
                                               min_size=1, max_size=4),
                               max_size=2))]
    reregistered = {key: draw(look_alike) for key in tag_maps[0]}
    metric_sets = []
    for width in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        slots = [(draw(st.sampled_from(_BLOCK_METRIC_KEYS)),
                  draw(st.sampled_from(_BLOCK_METRIC_VALUES)))
                 for _slot in range(width)]
        for _set in range(draw(st.integers(2, 4))):
            metric_sets.append({draw(st.sampled_from(keys)):
                                draw(st.sampled_from(values))
                                for keys, values in slots})
    span_shape = st.tuples(st.integers(0, len(tag_maps)),
                           st.sampled_from(range(len(metric_sets))),
                           st.booleans())
    shapes = draw(st.lists(st.lists(span_shape, min_size=1, max_size=6),
                           min_size=1, max_size=8))
    return (tag_maps, reregistered, metric_sets, shapes,
            draw(st.integers(0, len(shapes))))


def _assembled_trace(spans):
    assign_parents(spans)
    return Trace(spans)


def compact(payload) -> str:
    """The wire text of a payload dict: no whitespace, ASCII escapes."""
    return json.dumps(payload, separators=(",", ":"))


class TestRoundTripProperties:
    @given(spans=st.lists(st.one_of(export_span(),
                                    export_span(loose_keys=True)),
                          min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_encoder_matches_two_pass_oracle(self, spans):
        trace = _assembled_trace(spans)
        assert trace_to_otlp_json(trace) \
            == compact(two_pass_trace_to_otlp_json(trace))

    @given(spans=st.lists(export_span(), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_export_decode_reexport_fixed_point(self, spans):
        trace = _assembled_trace(spans)
        payload = trace_to_otlp_json(trace)
        decoded = decode_otlp_json(payload)
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
        payload = json.loads(trace_to_otlp_json(trace))
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


class TestBlockMemo:
    """An exporter encodes each repeated tag or metric block once and
    keeps the text; every payload must still be the oracle's bytes."""

    @given(blocks=shared_block_traces())
    @settings(max_examples=150, deadline=None)
    def test_exporter_memo_matches_two_pass_oracle(self, blocks):
        tag_maps, reregistered, metric_sets, shapes, at = blocks
        maps = [MappingProxyType(dict(tags)) for tags in tag_maps]
        exporter = OtlpStreamExporter()
        for index, shape in enumerate(shapes):
            if index == at:
                # The old map goes with its spans before the new one is
                # built, so only a memo entry holding it keeps its id
                # from being reused.
                maps[0] = None
                maps[0] = MappingProxyType(dict(reregistered))
            trace = _assembled_trace([
                _block_span(maps[tags] if tags < len(maps)
                            else dict(maps[0]),
                            dict(metric_sets[metrics]), error)
                for tags, metrics, error in shape])
            assert exporter.export_trace(trace) \
                == compact(two_pass_trace_to_otlp_json(trace))
            del trace

    def test_blocks_that_look_alike_export_apart(self):
        exporter = OtlpStreamExporter()
        for metrics in ({"z": 0.0}, {"z": -0.0}, {1: 2.5}, {True: 2.5},
                        {1.0: 2.5}, {"n": 1}, {"n": True}, {"n": "1"}):
            trace = Trace([_block_span({}, metrics)])
            assert exporter.export_trace(trace) \
                == compact(two_pass_trace_to_otlp_json(trace))
        held = [MappingProxyType({"v": value})
                for value in _LOOK_ALIKE_TAG_VALUES]
        for tags in held:
            # Equal values, all alive at once: only the map's identity
            # tells their texts apart.
            trace = Trace([_block_span(tags, {})])
            assert exporter.export_trace(trace) \
                == compact(two_pass_trace_to_otlp_json(trace))
        for value in range(20):
            # Each map dies before the next is built: an entry that did
            # not hold its map would hand the new one the old text.
            trace = Trace([_block_span(MappingProxyType({"v": value}), {})])
            assert exporter.export_trace(trace) \
                == compact(two_pass_trace_to_otlp_json(trace))
            del trace

    def test_more_blocks_than_the_memo_holds(self):
        from repro.core.export import _BLOCK_MEMO_CAP
        maps = [MappingProxyType({"pod": f"p{i}", "ip": i})
                for i in range(_BLOCK_MEMO_CAP)]
        exporter = OtlpStreamExporter()
        sizes = []
        for _round in range(2):                # cleared entries refill
            for first in range(0, len(maps), 8):
                trace = Trace([
                    _block_span(maps[i], {"rtt": i / 7, "zero": -0.0})
                    for i in range(first, first + 8)])
                assert exporter.export_trace(trace) \
                    == compact(two_pass_trace_to_otlp_json(trace))
                sizes.append(len(exporter._blocks))
        assert max(sizes) == _BLOCK_MEMO_CAP
        assert any(later < earlier
                   for earlier, later in zip(sizes, sizes[1:]))

    def test_span_enums_hash_by_identity(self):
        """The encoder's tables are keyed by the member; an identity
        hash keeps those lookups at C speed."""
        for member in [*SpanKind, *SpanSide]:
            assert type(member).__hash__ is object.__hash__
            assert hash(member) == object.__hash__(member)
        span = Span(span_id=1, kind=SpanKind.UPROBE, side=SpanSide.CLIENT,
                    start_time=0.0, end_time=1.0)
        for twin in (copy.copy(span), pickle.loads(pickle.dumps(span))):
            assert twin.kind is SpanKind.UPROBE
            assert twin.side is SpanSide.CLIENT


class TestOnePassEncoder:
    def test_keys_that_format_alike_order_by_exported_value(self):
        span = Span(span_id=7, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
                    start_time=1.0, end_time=2.0, protocol="mysql",
                    tags={1: "b", "1": "a", "x": None},
                    metrics={2: 1.0, "2": -1.0, 1: float("nan"), "1": 2,
                             None: 1.5, "None": float("inf")})
        trace = Trace([span])
        payload = trace_to_otlp_json(trace)
        assert payload == compact(two_pass_trace_to_otlp_json(trace))
        attrs = [(attr["key"], *attr["value"].values())
                 for attr in _first_span(json.loads(payload))["attributes"]]
        assert attrs[:4] == [("deepflow.metric.1", 2.0),
                             ("deepflow.metric.2", -1.0),
                             ("deepflow.metric.2", 1.0),
                             ("deepflow.metric.None", 1.5)]
        assert attrs[-3:] == [("deepflow.tag.1", "a"),
                              ("deepflow.tag.1", "b"),
                              ("deepflow.tag.x", "None")]

    def test_key_order_memo_skips_non_str_keys_and_is_bounded(self):
        from repro.core.export import _key_order
        # Each key travels with the KeyValue text that precedes its value.
        assert _key_order("deepflow.tag.", ("b", "a")) == (
            ("a", '{"key":"deepflow.tag.a","value":{"stringValue":'),
            ("b", '{"key":"deepflow.tag.b","value":{"stringValue":'))
        assert _key_order("deepflow.metric.", ('q"',)) == (
            ('q"', '{"key":"deepflow.metric.q\\"","value":{"doubleValue":'),)
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
        assert trace_to_otlp_json(trace) \
            == compact(two_pass_trace_to_otlp_json(trace))
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

    def test_torture_strings_escape_as_json_dumps_does(self):
        """Everything a format template or a hand-rolled escaper gets
        wrong, in every field that reaches the text."""
        nasty = ('q"uote b\\ack\x00\x1f\n\t ünï 漢 \U0001f600 \ud800 '
                 '%s %(x)d {0} {{}}')
        spans = [
            Span(span_id=1, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
                 start_time=1.0, end_time=2.0, host=nasty,
                 process_name=nasty, protocol="http", operation=nasty,
                 resource=nasty, status="error", status_code=500,
                 tags={nasty: nasty, "error.kind": nasty, "%": "{"},
                 metrics={nasty: 1.5, "%d": 1e-07, "{}": 1e22}),
            # non-http keys, a messaging kind, no parent, no service.
            Span(span_id=(1 << 64) + 2, kind=SpanKind.UPROBE,
                 side=SpanSide.CLIENT, start_time=1.25, end_time=1.5,
                 protocol="kafka", operation=nasty, resource=nasty,
                 status="ok", status_code=0, parent_id=None),
            Span(span_id=3, kind=SpanKind.NETWORK, side=SpanSide.NETWORK,
                 start_time=1.3, end_time=1.4, device_name="eth{0}%",
                 parent_id=(1 << 64) + 2),
        ]
        trace = Trace(spans)
        payload = trace_to_otlp_json(trace)
        assert payload == compact(two_pass_trace_to_otlp_json(trace))
        assert payload.isascii()
        assert encode_decoded(decode_otlp_json(payload)) == payload
        assert encode_decoded(decode_otlp_json(payload.encode())) == payload
        tree = json.loads(payload)
        services = [entry["resource"]["attributes"][0]["value"]["stringValue"]
                    for entry in tree["resourceSpans"]]
        assert services == sorted(["eth{0}%", nasty, "unknown"])
        by_id = {span["spanId"]: span for entry in tree["resourceSpans"]
                 for span in entry["scopeSpans"][0]["spans"]}
        assert by_id["0000000000000001"]["name"] == f"{nasty} {nasty}".strip()
        assert by_id["0000000000000001"]["status"] == {
            "code": "STATUS_CODE_ERROR", "message": nasty}
        assert by_id["0000000000000002"]["kind"] == "SPAN_KIND_PRODUCER"
        assert by_id["0000000000000002"]["parentSpanId"] == ""
        assert by_id["0000000000000003"]["parentSpanId"] == "0000000000000002"

    def test_empty_trace(self):
        payload = trace_to_otlp_json(Trace([]))
        assert payload == '{"resourceSpans":[]}'
        assert encode_decoded(decode_otlp_json(payload)) == payload


@pytest.fixture()
def valid_payload():
    span = Span(span_id=7, kind=SpanKind.SYSCALL, side=SpanSide.SERVER,
                start_time=1.0, end_time=2.0, host="n1",
                process_name="svc", protocol="http", operation="GET",
                resource="/", status="ok", status_code=200,
                tags={"pod": "p1"}, metrics={"rtt": 0.5})
    assign_parents([span])
    return json.loads(trace_to_otlp_json(Trace([span])))


class TestDecoderRejections:
    """Every corruption class must raise OtlpDecodeError."""

    def _reject(self, payload):
        with pytest.raises(OtlpDecodeError):
            decode_otlp_json(payload)

    def test_valid_payload_decodes(self, valid_payload):
        decoded = decode_otlp_json(valid_payload)
        assert decode_otlp_json(json.dumps(valid_payload)) == decoded
        assert decode_otlp_json(compact(valid_payload).encode()) == decoded

    def test_not_json(self):
        self._reject("{not json")

    def test_bytes_that_are_not_utf8(self):
        self._reject(b"\xff\xfe{")
        with pytest.raises(OtlpDecodeError):
            decode_otlp_metrics(b"\xff\xfe{")

    def test_repeated_object_key(self, valid_payload):
        """Last-wins would accept text the fixed point cannot
        reproduce."""
        self._reject('{"resourceSpans":[],"resourceSpans":[]}')
        text = compact(valid_payload)
        assert text.count('"name":"GET /",') == 1
        self._reject(text.replace('"name":"GET /",',
                                  '"name":"x","name":"GET /",'))
        with pytest.raises(OtlpDecodeError):
            decode_otlp_metrics(
                '{"resourceMetrics":[],"resourceMetrics":[]}')

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


# -- the payload text stream of two whole scenarios, pinned -------------------

#: scenario → SHA-256 of the exported payload stream, computed on the
#: parent commit ee4b481 (PR 20) as
#: ``json.dumps(payload, separators=(",", ":"))`` per payload dict.
PINS = {
    "spring": ("3410bff891cd68f971c85670342e9768"
               "be4f2dc22b9112ea93e0a5b2607b69a8"),
    "nginx_404": ("3c9d0190b7010eb83967283e4f2c7e7a"
                  "1c6202d78874d11493845b60efdef8ac"),
}


def stream_digest(payloads) -> str:
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(payload.encode() + b"\n")
    return digest.hexdigest()


def _stream(sim, cluster, generator, shards=1):
    """Run *generator* under polling agents and the push path; the
    exporter's payloads in export order."""
    exporter = OtlpStreamExporter()
    server = DeepFlowServer(shards=shards)
    server.enable_streaming(exporter=exporter)
    agents = []
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agent.start_polling(interval=0.01)
        agents.append(agent)
    report = sim.run_process(generator.run())
    assert report.completed
    sim.run(until=sim.now + 0.5)
    for agent in agents:
        agent.flush()
    server.streaming.drain(sim.now + 10.0)
    assert exporter.exported_spans == server.ingested_spans
    for payload in exporter.trace_payloads:
        decode_otlp_json(payload)
    return exporter.trace_payloads


def spring_scenario():
    """HTTP, Redis and MySQL sessions: both attribute families."""
    sim = Simulator(seed=16)
    app = springboot.build(sim)
    pod = app.pods["loadgen"]
    return _stream(sim, app.cluster, LoadGenerator(
        pod.node, app.entry_ip, app.entry_port, rate=100, duration=0.2,
        connections=4, path="/api/pin", pod=pod))


def nginx_404_scenario():
    """Two proxy tiers, one ingress answering 404: error statuses,
    ``X-Request-ID`` association, a sharded store."""
    sim = Simulator(seed=2024)
    builder = ClusterBuilder(node_count=3)
    client_pod = builder.add_pod(0, "client-pod")
    edge_pod = builder.add_pod(0, "edge-lb")
    ingress_pods = [builder.add_pod(i, f"nginx-ingress-{i}")
                    for i in range(3)]
    backend_pod = builder.add_pod(2, "shop-backend")
    cluster = builder.build()
    Network(sim, cluster)
    backend = HttpService("shop", backend_pod.node, 9000, pod=backend_pod,
                          service_time=0.001)

    @backend.route("/")
    def shop(worker, request):
        yield from worker.work(0.0005)
        return Response(200, body=b"checkout ok")

    backend.start()
    for index, pod in enumerate(ingress_pods):
        ingress = NginxProxy(f"nginx-ingress-{index}", pod.node, 8081,
                             pod=pod)
        ingress.add_route("/", [(backend_pod.ip, 9000)])
        if index == 1:
            ingress.inject_fault("/checkout", status_code=404)
        ingress.start()
    edge = NginxProxy("edge-lb", edge_pod.node, 8080, pod=edge_pod)
    edge.add_route("/", [(pod.ip, 8081) for pod in ingress_pods])
    edge.start()
    return _stream(sim, cluster, LoadGenerator(
        client_pod.node, edge_pod.ip, 8080, rate=30, duration=0.5,
        connections=3, path="/checkout", pod=client_pod, name="client"),
        shards=4)


SCENARIOS = {"spring": spring_scenario, "nginx_404": nginx_404_scenario}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_payload_stream_is_the_parents(name):
    payloads = SCENARIOS[name]()
    assert len(payloads) > 5
    assert stream_digest(payloads) == PINS[name]
    for payload in payloads:
        assert encode_decoded(decode_otlp_json(payload)) == payload
