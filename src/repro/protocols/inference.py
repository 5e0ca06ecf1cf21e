"""Per-connection protocol inference (Figure 6, phase 2).

The agent "iterates through the common protocol specifications and the
optional user-supplied protocol specifications, executing a one-time
protocol inference for each newly established connection" (§3.3.1).

Inference is sticky: once a connection is classified, subsequent payloads
are parsed with the chosen spec only.  Payloads seen before a successful
classification (e.g. a body continuation first observed mid-connection)
stay unclassified and surface as opaque messages.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.protocols.amqp import AmqpSpec
from repro.protocols.base import ParsedMessage, ProtocolSpec
from repro.protocols.dns import DnsSpec
from repro.protocols.dubbo import DubboSpec
from repro.protocols.grpc import GrpcSpec
from repro.protocols.http1 import Http1Spec
from repro.protocols.http2 import Http2Spec
from repro.protocols.kafka import KafkaSpec
from repro.protocols.mqtt import MqttSpec
from repro.protocols.mysql import MysqlSpec
from repro.protocols.redis import RedisSpec
from repro.protocols.tls import TlsSpec

#: Common specs, tried in order.  More-distinctive formats come first so
#: that permissive ones (HTTP/1's text heuristic) cannot shadow them;
#: gRPC precedes plain HTTP/2 because every gRPC exchange is also valid
#: HTTP/2.
DEFAULT_SPECS: tuple[ProtocolSpec, ...] = (
    GrpcSpec(),
    Http2Spec(),
    DubboSpec(),
    AmqpSpec(),
    TlsSpec(),
    DnsSpec(),
    MysqlSpec(),
    KafkaSpec(),
    MqttSpec(),
    RedisSpec(),
    Http1Spec(),
)


#: Bound on the memoized parse table; on overflow the table is cleared
#: (cheap, and steady-state workloads re-warm it within one batch).
PARSE_CACHE_MAX = 4096

#: Distinguishes "cached None" (a continuation) from "not cached".
_MISS = object()


class ProtocolInferenceEngine:
    """Sticky per-connection protocol classification + parsing.

    Parsing is memoized: ``ProtocolSpec.parse`` is a pure function of the
    payload bytes, and production traffic repeats the same small message
    set (health checks, identical requests), so a bounded
    ``(protocol, payload) → ParsedMessage`` table turns the steady-state
    parse into one dict hit.  Cached :class:`ParsedMessage` objects are
    shared between hits and must be treated as immutable — nothing in the
    pipeline mutates a parsed message after construction.
    """

    def __init__(self, user_specs: Optional[Iterable[ProtocolSpec]] = None,
                 specs: Optional[Iterable[ProtocolSpec]] = None):
        base = tuple(specs) if specs is not None else DEFAULT_SPECS
        self._specs: tuple[ProtocolSpec, ...] = (
            tuple(user_specs or ()) + base)
        self._by_connection: dict[int, ProtocolSpec] = {}
        self._parse_cache: dict[tuple[str, bytes], object] = {}
        self.inference_attempts = 0

    def spec_for(self, socket_id: int) -> Optional[ProtocolSpec]:
        """The spec previously inferred for this connection, if any."""
        return self._by_connection.get(socket_id)

    def classify(self, socket_id: int,
                 payload: bytes) -> Optional[ProtocolSpec]:
        """One-time inference for a connection; sticky once successful."""
        spec = self._by_connection.get(socket_id)
        if spec is not None:
            return spec
        self.inference_attempts += 1
        for candidate in self._specs:
            if candidate.infer(payload):
                self._by_connection[socket_id] = candidate
                return candidate
        return None

    def parse(self, socket_id: int,
              payload: bytes) -> Optional[ParsedMessage]:
        """Classify (if needed) then parse; None for continuations."""
        if not payload:
            return None
        spec = self._by_connection.get(socket_id)
        if spec is None:
            spec = self.classify(socket_id, payload)
            if spec is None:
                return None
        cache_key = (spec.name, payload)
        parsed = self._parse_cache.get(cache_key, _MISS)
        if parsed is not _MISS:
            return parsed
        parsed = spec.parse(payload)
        if len(self._parse_cache) >= PARSE_CACHE_MAX:
            self._parse_cache.clear()
        self._parse_cache[cache_key] = parsed
        return parsed

    def forget(self, socket_id: int) -> None:
        """Drop the classification (connection closed)."""
        self._by_connection.pop(socket_id, None)
