"""Additional protocol backends: Kafka, MQTT, Dubbo, HTTP/2.

Together with :mod:`repro.apps.services` (DNS/Redis/MySQL) and the HTTP
runtime, these cover every protocol the agent can infer, so integration
tests can drive genuine traffic of each format through the full tracing
pipeline.
"""

from __future__ import annotations

import struct
from typing import Callable, Generator, Optional

from repro.apps.runtime import Component, WorkerContext
from repro.network.topology import Node, Pod
from repro.protocols import dubbo, grpc, http2, kafka, mqtt


class KafkaService(Component):
    """A broker node answering Produce/Fetch/Metadata requests."""

    def __init__(self, name: str, node: Node, port: int = 9092,
                 pod: Optional[Pod] = None, *,
                 op_time: float = 0.0005, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.op_time = op_time
        self.topics: dict[str, int] = {}  # topic -> message count

    def frame_length(self, buffer: bytes) -> Optional[int]:
        """Length of the size-prefixed frame at the front, once whole."""
        if len(buffer) < 4:
            return None
        length = 4 + struct.unpack(">i", buffer[:4])[0]
        return length if len(buffer) >= length else None

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        parsed = kafka.KafkaSpec().parse(data)
        if parsed is None or parsed.stream_id is None:
            return None
        if self.op_time:
            yield from worker.work(self.op_time)
        topic = parsed.resource
        if parsed.operation == "Produce":
            self.topics[topic] = self.topics.get(topic, 0) + 1
            return kafka.encode_response(parsed.stream_id)
        if parsed.operation == "Fetch":
            error = (kafka.ERROR_NONE if topic in self.topics
                     else kafka.ERROR_UNKNOWN_TOPIC)
            return kafka.encode_response(parsed.stream_id, error)
        return kafka.encode_response(parsed.stream_id)


class MqttBroker(Component):
    """An MQTT broker acknowledging QoS-1 publishes and subscribes."""

    def __init__(self, name: str, node: Node, port: int = 1883,
                 pod: Optional[Pod] = None, *,
                 op_time: float = 0.0003, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.op_time = op_time
        self.retained: dict[str, bytes] = {}
        self.subscriptions: list[str] = []
        self.fail_topic: Optional[str] = None

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        parsed = mqtt.MqttSpec().parse(data)
        if parsed is None:
            return None
        if self.op_time:
            yield from worker.work(self.op_time)
        if parsed.operation == "PUBLISH" and parsed.stream_id is not None:
            success = parsed.resource != self.fail_topic
            if success:
                self.retained[parsed.resource] = b""
            return mqtt.encode_puback(parsed.stream_id, success=success)
        if parsed.operation == "SUBSCRIBE":
            self.subscriptions.append(parsed.resource)
            return mqtt.encode_suback(parsed.stream_id)
        return None


class DubboService(Component):
    """An RPC provider answering Dubbo two-way invocations."""

    def __init__(self, name: str, node: Node, port: int = 20880,
                 pod: Optional[Pod] = None, *,
                 invoke_time: float = 0.001, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.invoke_time = invoke_time
        self.methods: dict[str, Callable[[], bytes]] = {}
        self.invocations = 0

    def register_method(self, method: str,
                        result: bytes = b"ok") -> None:
        """Register an RPC method returning *result*."""
        self.methods[method] = lambda: result

    def frame_length(self, buffer: bytes) -> Optional[int]:
        """Length of the Dubbo frame at the front, once whole."""
        if len(buffer) < 16:
            return None
        length = 16 + struct.unpack(">I", buffer[12:16])[0]
        return length if len(buffer) >= length else None

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        parsed = dubbo.DubboSpec().parse(data)
        if parsed is None or parsed.stream_id is None:
            return None
        if self.invoke_time:
            yield from worker.work(self.invoke_time)
        self.invocations += 1
        handler = self.methods.get(parsed.operation)
        if handler is None:
            return dubbo.encode_response(parsed.stream_id,
                                         dubbo.STATUS_SERVER_ERROR)
        return dubbo.encode_response(parsed.stream_id, body=handler())


class GrpcService(Component):
    """A unary gRPC server: register handlers per Service/Method."""

    def __init__(self, name: str, node: Node, port: int = 50051,
                 pod: Optional[Pod] = None, *,
                 call_time: float = 0.001, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.call_time = call_time
        self._methods: dict[tuple[str, str], Callable] = {}
        self.calls = 0

    def register(self, service: str, method: str,
                 handler: Callable[[bytes], tuple[int, bytes]]) -> None:
        """``handler(request_bytes) -> (grpc_status, response_bytes)``."""
        self._methods[(service, method)] = handler

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        parsed = grpc.GrpcSpec().parse(data)
        if parsed is None or parsed.stream_id is None:
            return None
        if self.call_time:
            yield from worker.work(self.call_time)
        self.calls += 1
        handler = self._methods.get((parsed.resource, parsed.operation))
        if handler is None:
            return grpc.encode_response(parsed.stream_id,
                                        grpc.NOT_FOUND)
        status, message = handler(b"")
        return grpc.encode_response(parsed.stream_id, status,
                                    message=message)


class Http2Service(Component):
    """An HTTP/2 service answering one stream per request message."""

    def __init__(self, name: str, node: Node, port: int = 8443,
                 pod: Optional[Pod] = None, *,
                 service_time: float = 0.001, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.service_time_h2 = service_time
        self._routes: list[tuple[str, Callable]] = []

    def route(self, prefix: str):
        """Decorator registering a handler for a path prefix."""
        def register(handler):
            """Register a handler."""
            self._routes.append((prefix, handler))
            return handler

        return register

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        parsed = http2.Http2Spec().parse(data)
        if parsed is None or parsed.stream_id is None:
            return None
        if self.service_time_h2:
            yield from worker.work(self.service_time_h2)
        for prefix, handler in self._routes:
            if parsed.resource.startswith(prefix):
                status, body = yield from handler(worker, parsed)
                return http2.encode_response(status, parsed.stream_id,
                                             body=body)
        return http2.encode_response(404, parsed.stream_id)
