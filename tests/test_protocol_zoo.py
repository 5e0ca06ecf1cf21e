"""Protocol zoo: every inferable protocol traced end to end.

Each test drives genuine traffic of one wire format through the full
stack — app → kernel hooks → agent inference → session aggregation →
server — and checks that the spans carry the right protocol semantics.
Includes the multiplexed out-of-order case that pipeline matching cannot
handle and stream-id matching must (§3.3.1, parallel protocols).
"""

import pytest

from repro.apps.extra_services import (
    DubboService,
    Http2Service,
    KafkaService,
    MqttBroker,
)
from repro.apps.runtime import WorkerContext
from repro.apps.services import DnsService
from repro.core.span import SpanSide
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import dubbo, http2, kafka, mqtt
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


@pytest.fixture
def zoo():
    sim = Simulator(seed=67)
    builder = ClusterBuilder(node_count=2)
    client_pod = builder.add_pod(0, "client-pod")
    svc_pod = builder.add_pod(1, "svc-pod")
    cluster = builder.build()
    network = Network(sim, cluster)
    server = DeepFlowServer()
    agents = []
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agents.append(agent)

    class Zoo:
        pass

    zoo = Zoo()
    zoo.sim = sim
    zoo.network = network
    zoo.server = server
    zoo.agents = agents
    zoo.client_pod = client_pod
    zoo.svc_pod = svc_pod

    kernel = network.kernel_for_node(client_pod.node.name)
    process = kernel.create_process("client", client_pod.ip)
    thread = kernel.create_thread(process)

    class _Shim:
        pass

    shim = _Shim()
    shim.kernel = kernel
    shim.ingress_abi = "read"
    shim.egress_abi = "write"
    shim.sim = sim
    zoo.worker = WorkerContext(shim, thread, None)
    zoo.kernel = kernel
    zoo.thread = thread

    def finish():
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush(expire=True)

    zoo.finish = finish
    return zoo


class TestKafkaEndToEnd:
    def test_produce_and_fetch_traced(self, zoo):
        broker = KafkaService("kafka", zoo.svc_pod.node, 9092,
                              pod=zoo.svc_pod)
        broker.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 9092,
                kafka.encode_request(kafka.API_PRODUCE, 7, "orders"),
                complete=broker.frame_length)
            assert kafka.KafkaSpec().parse(reply).status == "ok"
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 9092,
                kafka.encode_request(kafka.API_FETCH, 8, "orders"),
                complete=broker.frame_length)
            return kafka.KafkaSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.status == "ok"
        zoo.finish()
        spans = zoo.server.find_spans(process_name="kafka")
        assert {span.operation for span in spans} == {"Produce", "Fetch"}
        assert all(span.protocol == "kafka" for span in spans)
        assert all(span.side is SpanSide.SERVER for span in spans)

    def test_fetch_unknown_topic_is_error_span(self, zoo):
        broker = KafkaService("kafka", zoo.svc_pod.node, 9092,
                              pod=zoo.svc_pod)
        broker.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 9092,
                kafka.encode_request(kafka.API_FETCH, 9, "missing"),
                complete=broker.frame_length)
            return kafka.KafkaSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.is_error
        zoo.finish()
        spans = zoo.server.find_spans(process_name="kafka")
        assert spans[0].is_error
        assert spans[0].status_code == kafka.ERROR_UNKNOWN_TOPIC


class TestMqttEndToEnd:
    def test_publish_subscribe_traced(self, zoo):
        broker = MqttBroker("mosquitto", zoo.svc_pod.node, 1883,
                            pod=zoo.svc_pod)
        broker.start()

        def client():
            yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 1883, mqtt.encode_subscribe(1, "alerts/#"))
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 1883,
                mqtt.encode_publish(2, "alerts/cpu", b"93"))
            return mqtt.MqttSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.status == "ok"
        zoo.finish()
        spans = zoo.server.find_spans(process_name="mosquitto")
        operations = {span.operation for span in spans}
        assert operations == {"SUBSCRIBE", "PUBLISH"}
        publish_span = next(span for span in spans
                            if span.operation == "PUBLISH")
        assert publish_span.resource == "alerts/cpu"

    def test_failed_publish_is_error_span(self, zoo):
        broker = MqttBroker("mosquitto", zoo.svc_pod.node, 1883,
                            pod=zoo.svc_pod)
        broker.fail_topic = "forbidden"
        broker.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 1883,
                mqtt.encode_publish(3, "forbidden", b"x"))
            return mqtt.MqttSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.is_error
        zoo.finish()
        spans = zoo.server.find_spans(process_name="mosquitto")
        assert spans[0].is_error


class TestDubboEndToEnd:
    def test_invocation_traced(self, zoo):
        provider = DubboService("order-provider", zoo.svc_pod.node, 20880,
                                pod=zoo.svc_pod)
        provider.register_method("createOrder", b"order-77")
        provider.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 20880,
                dubbo.encode_request(501, "com.shop.OrderService",
                                     "createOrder"),
                complete=provider.frame_length)
            return dubbo.DubboSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.status == "ok"
        zoo.finish()
        spans = zoo.server.find_spans(process_name="order-provider")
        assert len(spans) == 1
        span = spans[0]
        assert span.protocol == "dubbo"
        assert span.operation == "createOrder"
        assert span.resource == "com.shop.OrderService"
        assert span.message_id == 501

    def test_unknown_method_is_error(self, zoo):
        provider = DubboService("order-provider", zoo.svc_pod.node, 20880,
                                pod=zoo.svc_pod)
        provider.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 20880,
                dubbo.encode_request(502, "svc", "nope"),
                complete=provider.frame_length)
            return dubbo.DubboSpec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.is_error
        zoo.finish()
        assert zoo.server.find_spans(process_name="order-provider")[0].is_error


class TestHttp2EndToEnd:
    def test_request_traced_with_stream_id(self, zoo):
        service = Http2Service("grpc-ish", zoo.svc_pod.node, 8443,
                               pod=zoo.svc_pod)

        @service.route("/reviews")
        def reviews(worker, parsed):
            yield from worker.work(0.0002)
            return 200, b'{"reviews": []}'

        service.start()

        def client():
            reply = yield from zoo.worker.call_raw(
                zoo.svc_pod.ip, 8443,
                http2.encode_request("GET", "/reviews/7", stream_id=5,
                                     with_preface=True))
            return http2.Http2Spec().parse(reply)

        result = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert result.status_code == 200
        zoo.finish()
        spans = zoo.server.find_spans(process_name="grpc-ish")
        assert spans[0].protocol == "http2"
        assert spans[0].resource == "/reviews/7"


class TestOutOfOrderMultiplexing:
    def test_responses_out_of_order_still_pair_by_stream_id(self, zoo):
        """A hand-rolled server answers two pipelined Dubbo requests in
        reverse order; stream-id matching must pair them correctly where
        order-based matching would swap them."""
        kernel = zoo.network.kernel_for_node(zoo.svc_pod.node.name)
        process = kernel.create_process("reorderer", zoo.svc_pod.ip)
        thread = kernel.create_thread(process)
        listener = kernel.listen(process, 20999)

        def server_loop():
            fd = yield from kernel.accept(thread, listener)
            buffer = b""
            requests = []
            while len(requests) < 2:
                data = yield from kernel.read(thread, fd)
                buffer += data
                while len(buffer) >= 16:
                    body_len = int.from_bytes(buffer[12:16], "big")
                    total = 16 + body_len
                    if len(buffer) < total:
                        break
                    requests.append(
                        dubbo.DubboSpec().parse(buffer[:total]))
                    buffer = buffer[total:]
            yield 0.002  # "work" on both, then answer in reverse
            for parsed in reversed(requests):
                yield from kernel.write(
                    thread, fd,
                    dubbo.encode_response(parsed.stream_id,
                                          body=str(parsed.stream_id)
                                          .encode()))

        zoo.sim.spawn(server_loop(), name="reorderer")

        def client():
            fd = yield from zoo.kernel.connect(zoo.thread,
                                               zoo.svc_pod.ip, 20999)
            yield from zoo.kernel.write(
                zoo.thread, fd, dubbo.encode_request(111, "svc", "first"))
            yield from zoo.kernel.write(
                zoo.thread, fd, dubbo.encode_request(222, "svc", "second"))
            replies = []
            while len(replies) < 2:
                data = yield from zoo.kernel.read(zoo.thread, fd)
                offset = 0
                while offset + 16 <= len(data):
                    body_len = int.from_bytes(data[offset + 12:offset + 16],
                                              "big")
                    replies.append(dubbo.DubboSpec().parse(
                        data[offset:offset + 16 + body_len]))
                    offset += 16 + body_len
            return replies

        replies = zoo.sim.run_process(zoo.sim.spawn(client()))
        assert [reply.stream_id for reply in replies] == [222, 111]
        zoo.finish()
        client_spans = zoo.server.find_spans(process_name="client")
        assert len(client_spans) == 2
        by_method = {span.operation: span for span in client_spans}
        # Stream-id matching pairs each request with its own response:
        # 'first' (sent first, answered last) spans the whole exchange.
        assert by_method["first"].message_id == 111
        assert by_method["second"].message_id == 222
        assert (by_method["first"].end_time
                > by_method["second"].end_time)
        assert all(span.status == "ok" for span in client_spans)
