"""Ablations of the design choices DESIGN.md calls out.

Each ablation disables one mechanism of the reproduction and quantifies
what breaks, demonstrating that the mechanism is load-bearing:

* coroutine pseudo-threads (Design 3) — without them, concurrent
  coroutine handlers on one kernel thread corrupt intra-component
  association and traces merge or fragment;
* the X-Request-ID rule (§3.3.2 cross-thread association) — without it,
  a proxy that hands requests across threads splits every trace in two;
* Algorithm 1's iteration budget — too few iterations truncate deep
  traces; the default (30) is comfortably above convergence;
* the session time window (§3.3.1) — a too-small slot expires slow
  requests into spurious error sessions;
* the queue-relay rule (extension) — without it, broker traces stop at
  the queue.
"""

import pytest

from benchmarks.conftest import deploy_deepflow, flush_all, print_table, \
    run_wrk2

from repro.agent.agent import AgentConfig
from repro.agent.sessions import Message, SessionAggregator
from repro.apps import bookinfo
from repro.apps.proxy import NginxProxy
from repro.apps.rabbitmq import ConsumerService, RabbitMQBroker, publish
from repro.apps.runtime import HttpService, Response, WorkerContext
from repro.core.span import SpanSide
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.reference import collect_iterative
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


def test_ablation_coroutine_pseudo_threads(benchmark):
    """Bookinfo's reviews service runs coroutines; without pseudo-thread
    handling its traces lose the reviews→ratings linkage."""

    def run(use_coroutines: bool):
        sim = Simulator(seed=301)
        app = bookinfo.build(sim)
        server = DeepFlowServer()
        agents = []
        config = AgentConfig(use_coroutine_pthreads=use_coroutines)
        for node in app.cluster.nodes:
            agent = server.new_agent(node.kernel, node=node, config=config)
            agent.deploy()
            agents.append(agent)
        # High enough concurrency that several coroutine handlers are
        # active on the reviews service's single thread at once.
        report = run_wrk2(sim, app.pods["loadgen"], app.entry_ip,
                          app.entry_port, rate=150, duration=0.5,
                          connections=12, path="/productpage")
        flush_all(sim, agents)
        roots = [span for span in server.store.all_spans()
                 if span.process_name == "wrk2"
                 and span.side is SpanSide.CLIENT]
        traces = [server.trace(span.span_id) for span in roots]
        sizes = [len(trace) for trace in traces]
        return report, sizes

    (report_on, sizes_on), (report_off, sizes_off) = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=1, iterations=1)
    correct_on = sizes_on.count(18)
    correct_off = sizes_off.count(18)
    print_table(
        "Ablation: coroutine pseudo-threads",
        ["configuration", "traces with the full 18 spans", "traces"],
        [("with pseudo-threads", correct_on, len(sizes_on)),
         ("tid-only association", correct_off, len(sizes_off))])
    assert report_on.errors == 0
    assert correct_on == len(sizes_on)        # every trace complete
    assert correct_off < len(sizes_off)       # ablation visibly breaks


def test_ablation_x_request_id_rule(benchmark):
    """Cross-thread proxy: without the X-Request-ID rule the proxy's
    client span loses its parent and the trace splits."""

    def run():
        sim = Simulator(seed=302)
        builder = ClusterBuilder(node_count=3)
        lg_pod = builder.add_pod(0, "lg")
        proxy_pod = builder.add_pod(1, "px")
        backend_pod = builder.add_pod(2, "be")
        cluster = builder.build()
        Network(sim, cluster)
        server, agents = deploy_deepflow(cluster)
        backend = HttpService("backend", backend_pod.node, 9000,
                              pod=backend_pod, service_time=0.001)

        @backend.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        backend.start()
        proxy = NginxProxy("nginx", proxy_pod.node, 8080, pod=proxy_pod,
                           cross_thread=True)
        proxy.add_route("/", [(backend_pod.ip, 9000)])
        proxy.start()
        run_wrk2(sim, lg_pod, proxy_pod.ip, 8080, rate=10, duration=0.3,
                 connections=1)
        flush_all(sim, agents)
        start = server.slowest_span()
        # server.trace() re-assigns parent ids on the stored span
        # objects, so snapshot the stats per configuration immediately.
        trace = server.trace(start.span_id)
        with_stats = (len(trace), len(trace.roots()))
        server.assembler.enable_x_request_id = False
        trace = server.trace(start.span_id)
        without_stats = (len(trace), len(trace.roots()))
        server.assembler.enable_x_request_id = True
        return with_stats, without_stats

    with_stats, without_stats = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    print_table(
        "Ablation: X-Request-ID cross-thread rule",
        ["configuration", "spans", "roots"],
        [("with rule",) + with_stats,
         ("without rule",) + without_stats])
    assert with_stats[1] == 1
    assert without_stats[1] > 1  # the trace splits


@pytest.mark.parametrize("iterations,expect_complete", [(1, False),
                                                        (30, True)])
def test_ablation_iteration_budget(benchmark, iterations,
                                   expect_complete):
    """A deep chain needs several Algorithm 1 iterations; the default
    budget is ample, a budget of 1 truncates.  Only the iterative
    reference has an iteration budget — the trace-graph index returns
    the full component regardless, so this ablation pins both facts."""
    sim = Simulator(seed=303)
    app = bookinfo.build(sim)
    server = DeepFlowServer()
    agents = []
    for node in app.cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agents.append(agent)
    run_wrk2(sim, app.pods["loadgen"], app.entry_ip, app.entry_port,
             rate=5, duration=0.3, connections=1, path="/productpage")
    flush_all(sim, agents)
    root = next(span for span in server.store.all_spans()
                if span.process_name == "wrk2")
    found = benchmark.pedantic(
        lambda: collect_iterative(server.store, root.span_id, iterations),
        rounds=1, iterations=1)
    if expect_complete:
        assert len(found.spans) == 18
    else:
        assert len(found.spans) < 18
    # The union-find has no iteration budget to truncate.
    assert len(server.trace(root.span_id)) == 18


def test_ablation_time_window(benchmark):
    """A 50 ms slot expires a 150 ms-slow response into an error session;
    the paper's 60 s slot does not (§3.3.1)."""
    from repro.kernel.sockets import FiveTuple
    from repro.kernel.syscalls import Direction, SyscallRecord
    from repro.protocols.base import MessageType, ParsedMessage

    def message(msg_type, direction, t):
        record = SyscallRecord(
            pid=1, tid=1, coroutine_id=None, process_name="p",
            socket_id=1, five_tuple=FiveTuple("a", 1, "b", 2), tcp_seq=1,
            enter_time=t, exit_time=t, direction=direction, abi="read",
            byte_len=1, payload=b"x", ret=1)
        return Message(record=record,
                       parsed=ParsedMessage("http", msg_type))

    def run(slot):
        aggregator = SessionAggregator(slot_duration=slot)
        aggregator.add(message(MessageType.REQUEST,
                               Direction.EGRESS, 0.099))
        sessions = aggregator.add(message(MessageType.RESPONSE,
                                          Direction.INGRESS, 0.25))
        return sessions

    tiny, paper = benchmark.pedantic(lambda: (run(0.05), run(60.0)),
                                     rounds=1, iterations=1)
    print_table(
        "Ablation: session time-window slot",
        ["slot", "sessions", "errors"],
        [("50 ms", len(tiny),
          sum(1 for session in tiny if session.error)),
         ("60 s (paper)", len(paper),
          sum(1 for session in paper if session.error))])
    assert any(session.error == "no-response" for session in tiny)
    assert len(paper) == 1 and paper[0].complete


def test_ablation_queue_relay_rule(benchmark):
    """Without R11 the trace stops at the broker (the paper's stated
    limitation); with it the consumer side joins."""

    def run():
        sim = Simulator(seed=304)
        builder = ClusterBuilder(node_count=3)
        producer_pod = builder.add_pod(0, "producer-pod")
        mq_pod = builder.add_pod(1, "rabbitmq-pod")
        consumer_pod = builder.add_pod(2, "consumer-pod")
        cluster = builder.build()
        network = Network(sim, cluster)
        server, agents = deploy_deepflow(cluster)
        consumer = ConsumerService("worker", consumer_pod.node, 7000,
                                   pod=consumer_pod)
        consumer.start()
        broker = RabbitMQBroker("rabbitmq", mq_pod.node, 5672, pod=mq_pod,
                                queue_capacity=100, consume_rate=500.0)
        broker.start()
        broker.subscribe("orders", consumer_pod.ip, 7000)
        kernel = network.kernel_for_node(producer_pod.node.name)
        process = kernel.create_process("producer", producer_pod.ip)
        thread = kernel.create_thread(process)

        class _Shim:
            pass

        shim = _Shim()
        shim.kernel = kernel
        shim.ingress_abi = "read"
        shim.egress_abi = "write"
        shim.sim = sim
        worker = WorkerContext(shim, thread, None)

        def producer_main():
            yield from publish(worker, mq_pod.ip, 5672, channel=1,
                               delivery_tag=1, queue="orders", body=b"j")

        sim.run_process(sim.spawn(producer_main()))
        flush_all(sim, agents, extra=1.0)
        start = next(span for span in server.store.all_spans()
                     if span.process_name == "producer")
        trace = server.trace(start.span_id)
        with_stats = (len(trace), len(trace.roots()))
        server.assembler.enable_queue_relay = False
        trace = server.trace(start.span_id)
        without_stats = (len(trace), len(trace.roots()))
        return with_stats, without_stats

    with_stats, without_stats = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    print_table(
        "Ablation: queue-relay rule (R11, beyond-paper extension)",
        ["configuration", "spans", "roots"],
        [("with R11",) + with_stats,
         ("without (paper baseline)",) + without_stats])
    assert with_stats[1] == 1
    assert without_stats[1] == 2  # producer side + deliver side
