"""The span stream the agent ships is what it was before the per-message
path (record → message → session → span) was rewritten.

Two references, both taken from the commit before the rewrite:

* **Stream pins.**  Four small live scenarios — the Spring Boot demo
  (HTTP / Redis / MySQL), a TLS client and service under ``attach_uprobe``
  (SSL_write-before and SSL_read-after fusing), a chunked upload through
  an overload run that reaches ``SHED_PAYLOAD`` (degraded heads and
  continuations), and 200 connect → request → response → close cycles —
  each tapped at ``perf.submit`` and replayed into fresh agents on bare
  kernels against a list sink.  A SHA-256 over every field of every span,
  as shipped live and as shipped by the replay, must equal the constant
  below.  Regenerate on the commit the pins should describe with::

      PYTHONPATH=src python -c "import tests.test_agent_span_identity as t; t.print_pins()"

* ``_parent_build_span`` — ``DeepFlowAgent._build_span`` as it was,
  keyword for keyword (one re-anchor window, like
  ``tests/test_front_half_identity.py``): a property over session shapes
  requires the agent's builder to agree with it field for field and to
  draw as many ids.
"""

import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.agent import AgentConfig, DeepFlowAgent
from repro.agent.overload import DEGRADED_REQUEST, DEGRADED_RESPONSE
from repro.agent.sessions import Message, Session
from repro.apps import springboot
from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import Component, HttpService, Response
from repro.core.span import Span, SpanKind, SpanSide
from repro.kernel.kernel import Kernel
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import http1, tls
from repro.protocols.base import MessageType, ParsedMessage
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

#: scenario → (live stream, replayed stream), computed on the parent
#: commit 9955f2d (PR 18).
PINS = {
    "spring": ("baee4cbad2ff4fbec7f3441d493c60d84da80734ef2f468015018faf4703e23a",
               "f2b95a094be8deef6bd581af75cf161303c7480768c2f587b08796922ac2dabf"),
    "tls": ("8012c42c3efdf5b2bf0499affb105eb043d10618a63d42916848bc43b637c303",
            "a33ef65dd092034941ca22ebacd3b7e00f50d8216962fea5ac7548028383be4b"),
    "overload": ("2394fee9ff5fc849f15a6fe90435d86aefd576b2b2634280e74157e7e9ef8547",
                 "b21b909748372f4e7bb24c09a1e94bf051d4b520e6d2045e6d43eb73d3741e69"),
    "close_cycles": ("e2516a9d38a2f0a677e244d122384568dc6683d649a07d54df9ba81a440a474e",
                     "e3b9f2f7f41e69bed8e44ea205cb42da4ea5ffdf5814f6bc1a7d4309da48ee3d"),
}


def stream_digest(spans) -> str:
    """SHA-256 over every slot of every span, in declaration order."""
    digest = hashlib.sha256()
    for span in spans:
        for name in Span.__slots__:
            value = getattr(span, name)
            if name in ("tags", "metrics"):
                value = sorted(value.items())
            digest.update(repr((name, value)).encode())
    return digest.hexdigest()


class ListSink:
    """Stands in for the server behind ``agent.ship()``."""

    def __init__(self):
        self.spans = []

    def ingest_spans(self, spans, tenant=None, now=None):
        self.spans.extend(spans)


class Capture:
    """One polling agent per node, shipping into a list, with every
    ``perf.submit`` argument recorded and cut into the poll cycles."""

    def __init__(self, sim, nodes, config=None):
        self.sim = sim
        self.config = config
        self.sink = ListSink()
        server = DeepFlowServer()
        server.ingest_spans = self.sink.ingest_spans
        #: (sim time, agent index, [(record, source), ...]) per poll.
        self.cycles = []
        self.agents = []
        for index, node in enumerate(nodes):
            agent = server.new_agent(node.kernel, node=node, config=config)
            agent.deploy()
            self._tap(agent, index)
            agent.start_polling()
            self.agents.append(agent)

    def _tap(self, agent, index):
        pending = []
        submit, poll = agent.perf.submit, agent.poll

        def recording_submit(record, source=""):
            # A copy: the kernel reuses one uprobe record for the enter
            # and the return probe.
            pending.append((copy.copy(record), source))
            return submit(record, source)

        def recording_poll():
            if pending:
                self.cycles.append((self.sim.now, index, pending[:]))
                pending.clear()
            return poll()

        agent.perf.submit = recording_submit
        agent.poll = recording_poll

    def settle(self, extra=0.5):
        self.sim.run(until=self.sim.now + extra)
        for agent in self.agents:
            agent.flush(expire=True)

    def replay(self):
        """The tape through fresh agents on bare kernels; what they ship."""
        sim = Simulator()
        sink = ListSink()
        agents = [DeepFlowAgent(Kernel(sim, agent.host), index + 1,
                                server=sink, config=self.config)
                  for index, agent in enumerate(self.agents)]
        for now, index, records in self.cycles:
            sim.now = now
            agent = agents[index]
            for record, source in records:
                agent.perf.submit(record, source)
            agent.poll()
            agent.ship()
        sim.now = self.sim.now
        for agent in agents:
            agent.flush(expire=True)
        return sink.spans, agents


# -- scenarios ---------------------------------------------------------------


def spring_scenario():
    sim = Simulator(seed=16)
    app = springboot.build(sim)
    capture = Capture(sim, app.cluster.nodes)
    pod = app.pods["loadgen"]
    generator = LoadGenerator(pod.node, app.entry_ip, app.entry_port,
                              rate=100, duration=0.4, connections=4,
                              path="/api/pin", pod=pod)
    report = sim.run_process(generator.run())
    assert report.completed == 40
    capture.settle()
    return capture


def two_pod_world(seed, client_name, service_name, config=None):
    """A client pod and a service pod on two nodes, one tapped agent each."""
    sim = Simulator(seed=seed)
    builder = ClusterBuilder(node_count=2)
    client_pod = builder.add_pod(0, client_name)
    service_pod = builder.add_pod(1, service_name)
    cluster = builder.build()
    network = Network(sim, cluster)
    capture = Capture(sim, cluster.nodes, config=config)
    kernel = network.kernel_for_node(client_pod.node.name)
    return sim, capture, kernel, client_pod, service_pod


def ok_service(service_pod, path, body):
    service = HttpService("svc", service_pod.node, 9000, pod=service_pod,
                          service_time=0.001)

    @service.route(path)
    def handler(worker, request):
        yield from worker.work(0.0001)
        return Response(200, body=body)

    service.start()


class TlsEchoService(Component):
    """A TLS-speaking HTTP service using ssl_read / ssl_write."""

    def handle_payload(self, worker, data):
        plaintext = tls.decrypt(data)
        yield from self.kernel.user_function(
            worker.thread, "ssl_read", plaintext, Direction.INGRESS,
            self._serving_fd)
        yield from worker.work(0.001)
        reply = http1.encode_response(200, body=b"secret-ok")
        yield from self.kernel.user_function(
            worker.thread, "ssl_write", reply, Direction.EGRESS,
            self._serving_fd)
        return tls.encrypt(reply)

    def _serve(self, thread, fd, coroutine):
        self._serving_fd = fd
        return super()._serve(thread, fd, coroutine)


def tls_scenario():
    sim, capture, kernel, client_pod, service_pod = two_pod_world(
        89, "https-client-pod", "secure-svc")
    TlsEchoService("secure", service_pod.node, 8443,
                   pod=service_pod).start()
    for agent, process_name in zip(capture.agents,
                                   ("https-client", "secure")):
        agent.attach_uprobe(process_name, "ssl_write")
        agent.attach_uprobe(process_name, "ssl_read")
    process = kernel.create_process("https-client", client_pod.ip)
    thread = kernel.create_thread(process)

    def client():
        fd = yield from kernel.connect(thread, service_pod.ip, 8443)
        for index in range(6):
            request = http1.encode_request(
                "POST", f"/things/{index}",
                headers={"x-request-id": f"rid-{index}"})
            yield from kernel.user_function(
                thread, "ssl_write", request, Direction.EGRESS, fd)
            yield from kernel.write(thread, fd, tls.encrypt(request))
            ciphertext = yield from kernel.read(thread, fd)
            yield from kernel.user_function(
                thread, "ssl_read", tls.decrypt(ciphertext),
                Direction.INGRESS, fd)
        kernel.close(thread, fd)

    sim.run_process(sim.spawn(client()))
    capture.settle()
    assert {span.kind for span in capture.sink.spans} == {SpanKind.UPROBE}
    return capture


def overload_scenario():
    """Chunked uploads while the perf ring backs up: the controller
    leaves FULL on its own, so heads and continuations arrive shed."""
    sim, capture, kernel, client_pod, service_pod = two_pod_world(
        92, "client-pod", "svc-pod",
        config=AgentConfig(perf_buffer_capacity=48))
    ok_service(service_pod, "/upload", b"stored")
    process = kernel.create_process("uploader", client_pod.ip)
    thread = kernel.create_thread(process)

    def uploader():
        fd = yield from kernel.connect(thread, service_pod.ip, 9000)
        for index in range(24):
            payload = http1.encode_request("POST", f"/upload/{index}",
                                           body=b"x" * 4000)
            for offset in range(0, len(payload), 512):  # 8+ syscalls
                yield from kernel.write(thread, fd,
                                        payload[offset:offset + 512])
            yield from kernel.read(thread, fd)

    sim.run_process(sim.spawn(uploader()))
    capture.settle()
    for agent in capture.agents:  # the run did leave FULL
        assert agent.stats["tier_changes"] > 0
        assert agent.stats["degraded_messages"] > 0
        assert agent.stats["continuations_merged"] > 0
        assert agent.aggregator.degraded > 0
    return capture


def close_cycles_scenario(cycles=200):
    sim, capture, kernel, client_pod, service_pod = two_pod_world(
        7, "client-pod", "svc-pod")
    ok_service(service_pod, "/", b"ok")
    process = kernel.create_process("cycler", client_pod.ip)
    thread = kernel.create_thread(process)

    def client():
        for index in range(cycles):
            fd = yield from kernel.connect(thread, service_pod.ip, 9000)
            yield from kernel.write(thread, fd, http1.encode_request(
                "GET", f"/item/{index}"))
            yield from kernel.read(thread, fd)
            kernel.close(thread, fd)

    sim.run_process(sim.spawn(client()))
    capture.settle()
    return capture


SCENARIOS = {
    "spring": spring_scenario,
    "tls": tls_scenario,
    "overload": overload_scenario,
    "close_cycles": close_cycles_scenario,
}


def print_pins():
    for name, scenario in SCENARIOS.items():
        capture = scenario()
        replayed, _agents = capture.replay()
        print(f'    "{name}": ("{stream_digest(capture.sink.spans)}",\n'
              f'{" " * (9 + len(name))}"{stream_digest(replayed)}"),')


# -- the stream pins ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_shipped_stream_is_the_parents(name):
    capture = SCENARIOS[name]()
    assert capture.sink.spans
    replayed, _agents = capture.replay()
    assert (stream_digest(capture.sink.spans),
            stream_digest(replayed)) == PINS[name]


def assert_released(agent):
    assert agent._open_messages == {}
    assert agent._plaintext == {}
    assert agent._pending_opaque == {}
    assert agent._five_tuple_cache == {}
    assert agent.engine._by_connection == {}
    assert agent._plaintext_engine._by_connection == {}
    assert agent.aggregator._sockets == {}
    assert agent.sampler.open_sockets() == 0


def test_closed_sockets_release_every_per_socket_table():
    """200 connect → request → response → close cycles leave nothing
    behind, live or replayed (the spans they ship are pinned above)."""
    capture = close_cycles_scenario()
    _replayed, replay_agents = capture.replay()
    for agent in capture.agents + replay_agents:
        assert agent.stats["close_events"] == 200
        assert_released(agent)


def test_closed_tls_socket_releases_the_uprobe_stashes():
    capture = tls_scenario()
    for agent in capture.agents:
        assert agent.stats["close_events"] == 1
        assert_released(agent)


# -- _build_span against the parent's ----------------------------------------


def _parent_trace_id_of(parsed):
    """``DeepFlowAgent._trace_id_of`` of the parent commit."""
    if parsed is None:
        return None
    traceparent = parsed.traceparent
    if traceparent:
        parts = traceparent.split("-")
        if len(parts) >= 3:
            return parts[1]
    b3 = parsed.b3
    if b3:
        return b3.split("-")[0]
    return None


def _parent_build_span(agent, session):
    """``DeepFlowAgent._build_span`` of the parent commit, keyword for
    keyword."""
    request, response = session.request, session.response
    base = request or response
    if base is None:
        return None
    record = base.record
    if request is not None:
        side = (SpanSide.SERVER
                if request.record.direction is Direction.INGRESS
                else SpanSide.CLIENT)
    else:
        side = (SpanSide.SERVER
                if response.record.direction is Direction.EGRESS
                else SpanSide.CLIENT)
    start = request.time if request else response.time
    end = response.end_time if response else request.end_time
    parsed_req = request.parsed if request else None
    parsed_resp = response.parsed if response else None
    status = session.error and "error" or (
        parsed_resp.status if parsed_resp else "")
    span = Span(
        span_id=agent.ids.next_id(),
        kind=SpanKind.UPROBE if base.via_uprobe else SpanKind.SYSCALL,
        side=side,
        start_time=start,
        end_time=max(start, end),
        host=record.host_name,
        process_name=record.process_name,
        pid=record.pid,
        tid=record.tid,
        coroutine_id=record.coroutine_id,
        protocol=base.parsed.protocol,
        operation=(parsed_req.operation if parsed_req
                   else parsed_resp.operation),
        resource=parsed_req.resource if parsed_req else "",
        status=status,
        status_code=parsed_resp.status_code if parsed_resp else None,
        request_bytes=request.total_bytes if request else 0,
        response_bytes=response.total_bytes if response else 0,
        systrace_id=base.systrace_id,
        pseudo_thread_key=(record.host_name,) + tuple(
            base.pthread_key or ()),
        x_request_id=(parsed_req.x_request_id if parsed_req else None)
        or (parsed_resp.x_request_id if parsed_resp else None),
        flow_key=record.five_tuple.canonical(),
        req_tcp_seq=request.record.tcp_seq if request else None,
        resp_tcp_seq=response.record.tcp_seq if response else None,
        otel_trace_id=_parent_trace_id_of(parsed_req),
        socket_id=record.socket_id,
        message_id=(parsed_req.stream_id if parsed_req
                    else parsed_resp.stream_id),
    )
    if session.error:
        span.tags["error.kind"] = session.error
    return span


FT = FiveTuple("10.0.0.9", 41000, "10.0.0.2", 80)

HEADER_VALUES = {
    "x-request-id": st.sampled_from(["rid-1", "rid-2", ""]),
    "traceparent": st.sampled_from([
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        "00-onlytwo", "garbage", ""]),
    "b3": st.sampled_from(["80f198ee56343ba8-e457b5a2e4d86bd1-1",
                           "463ac35c9f6413ad", ""]),
    "content-type": st.just("text/plain"),
}

headers_strategy = st.fixed_dictionaries({}, optional=HEADER_VALUES)


@st.composite
def messages(draw, msg_type):
    degraded = draw(st.integers(0, 5)) == 0
    if degraded:
        parsed = (DEGRADED_REQUEST if msg_type is MessageType.REQUEST
                  else DEGRADED_RESPONSE)
    else:
        is_response = msg_type is MessageType.RESPONSE
        parsed = ParsedMessage(
            protocol=draw(st.sampled_from(["http", "redis", "dubbo"])),
            msg_type=msg_type,
            operation=draw(st.sampled_from(["GET", "QUERY", ""])),
            resource=draw(st.sampled_from(["/a", "orders", ""])),
            status=(draw(st.sampled_from(["ok", "error"]))
                    if is_response else ""),
            status_code=(draw(st.sampled_from([200, 404, 500, None]))
                         if is_response else None),
            stream_id=draw(st.one_of(st.none(), st.integers(0, 9))),
            headers=draw(headers_strategy))
    direction = draw(st.sampled_from(list(Direction)))
    # Times on a coarse grid, so a response can end before, at, or after
    # the instant its request starts.
    enter = draw(st.integers(0, 8)) / 4
    exit_ = enter + draw(st.integers(0, 4)) / 4
    nbytes = draw(st.integers(0, 5000))
    record = SyscallRecord(
        draw(st.integers(1, 3)), draw(st.integers(10, 12)),
        draw(st.one_of(st.none(), st.integers(1, 3))), "proc",
        draw(st.integers(1, 4)), FT, draw(st.integers(0, 1 << 20)),
        enter, exit_, direction, "read", nbytes, b"", nbytes, "host-a")
    pthread = draw(st.one_of(
        st.none(), st.just(("t", record.pid, record.tid, 2)),
        st.just(("c", record.pid, 7, 1))))
    message = Message(record, parsed,
                      draw(st.one_of(st.none(), st.integers(1, 99))),
                      pthread, draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        message.absorb_continuation(SyscallRecord(
            record.pid, record.tid, None, "proc", record.socket_id, FT, 0,
            exit_, exit_ + draw(st.integers(0, 4)) / 4, direction, "read",
            100, b"", 100, "host-a"))
    return message


@st.composite
def sessions(draw):
    shape = draw(st.sampled_from(["request", "response", "complete"]))
    request = (draw(messages(MessageType.REQUEST))
               if shape != "response" else None)
    response = (draw(messages(MessageType.RESPONSE))
                if shape != "request" else None)
    error = draw(st.sampled_from(
        ["", "no-response", "orphan-response", "reset"]))
    return Session((request or response).record.socket_id, request,
                   response, error)


def _bare_agent():
    return DeepFlowAgent(Kernel(Simulator(), "host-a"), 5)


@settings(max_examples=400, deadline=None)
@given(st.lists(sessions(), min_size=1, max_size=4))
def test_build_span_matches_the_parents_field_for_field(batch):
    agent, reference = _bare_agent(), _bare_agent()
    for session in batch:
        built = agent._build_span(session)
        expected = _parent_build_span(reference, session)
        assert type(built) is Span
        for name in Span.__slots__:
            assert getattr(built, name) == getattr(expected, name), name
    assert agent.ids.next_id() == reference.ids.next_id()


def test_build_span_of_an_empty_session_draws_no_id():
    agent = _bare_agent()
    assert agent._build_span(Session(1)) is None
    assert agent.ids.next_id() == _bare_agent().ids.next_id()
