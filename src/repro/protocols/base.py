"""Common protocol-parsing types.

A :class:`ParsedMessage` is the output of phase 2 of span construction
(Figure 6): the message type (request/response), the operation and resource
it names, the embedded distinguishing attribute used to pair requests with
responses on multiplexed connections, and any trace-context headers that a
third-party tracer (OpenTelemetry/Zipkin) smuggled along — which DeepFlow
extracts for third-party span integration (§3.3.2).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Optional


class MessageType(enum.Enum):
    """Request/response classification of a message."""
    REQUEST = "request"
    RESPONSE = "response"
    UNKNOWN = "unknown"


@dataclass
class ParsedMessage:
    """A protocol message recovered from raw payload bytes."""

    protocol: str
    msg_type: MessageType
    operation: str = ""          # verb: GET, QUERY, PUBLISH, ...
    resource: str = ""           # path, key, topic, domain, SQL table ...
    status: str = ""             # "ok" | "error" | "" (requests)
    status_code: Optional[int] = None
    stream_id: Optional[int] = None   # multiplex key, None for pipeline
    headers: dict[str, str] = field(default_factory=dict)
    size: int = 0

    @property
    def endpoint(self) -> str:
        """Human-readable endpoint label used in span names."""
        if self.resource:
            return f"{self.operation} {self.resource}".strip()
        return self.operation or self.protocol

    @property
    def x_request_id(self) -> Optional[str]:
        """The proxy-generated X-Request-ID, if present (§3.3.2)."""
        return self.headers.get("x-request-id")

    @property
    def traceparent(self) -> Optional[str]:
        """W3C trace-context header, if a third-party tracer added one."""
        return self.headers.get("traceparent")

    @property
    def b3(self) -> Optional[str]:
        """Zipkin B3 single-header propagation value, if present."""
        return self.headers.get("b3")

    @property
    def is_error(self) -> bool:
        """Whether this carries an error status."""
        return self.status == "error"


def third_party_trace_id(headers: dict[str, str]) -> Optional[str]:
    """The trace id a third-party tracer propagated in *headers*: field 2
    of a W3C ``traceparent``, else the prefix of a Zipkin ``b3``."""
    traceparent = headers.get("traceparent")
    if traceparent:
        parts = traceparent.split("-")
        if len(parts) >= 3:
            return parts[1]
    b3 = headers.get("b3")
    if b3:
        return b3.split("-")[0]
    return None


class ProtocolSpec(abc.ABC):
    """One protocol's inference + parsing logic.

    ``multiplexed`` distinguishes parallel protocols (match sessions by
    ``stream_id``) from pipeline protocols (match by order within the
    flow).
    """

    name: str = "unknown"
    multiplexed: bool = False
    #: Default TCP port convention, used only by examples for readability.
    default_port: Optional[int] = None

    @abc.abstractmethod
    def infer(self, payload: bytes) -> bool:
        """Does *payload* plausibly start a message of this protocol?"""

    @abc.abstractmethod
    def parse(self, payload: bytes) -> Optional[ParsedMessage]:
        """Parse one message from *payload*; None if not parseable.

        Returning None signals a continuation segment (the tail of a
        message whose head was already parsed); the agent folds it into
        the preceding message data (§3.3.1: "we only process the first
        system call for a message").
        """

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ProtocolSpec {self.name}>"
