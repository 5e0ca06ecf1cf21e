"""Edge cases: kernel API misuse, blocking perf reads, event disorder.

The disorder tests reproduce §3.3.1's motivation for the time-window
array: "to enable effective merging and address the message disorder
problem introduced by multiple CPU cores" — the pipeline must survive
events arriving slightly out of chronological order.
"""

import pytest

from repro.agent.agent import DeepFlowAgent
from repro.apps.proxy import NginxProxy
from repro.apps.runtime import HttpService, Response
from repro.kernel.ebpf import PerfBuffer
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import http1
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


class TestKernelApiMisuse:
    def test_recv_abi_rejects_egress_name(self):
        kernel = Kernel(Simulator(), "n1")
        process = kernel.create_process("p", "10.0.0.1")
        thread = kernel.create_thread(process)
        with pytest.raises(KernelError, match="not an ingress ABI"):
            kernel.recv_abi("write", thread, 3)

    def test_send_abi_rejects_ingress_name(self):
        kernel = Kernel(Simulator(), "n1")
        process = kernel.create_process("p", "10.0.0.1")
        thread = kernel.create_thread(process)
        with pytest.raises(KernelError, match="not an egress ABI"):
            kernel.send_abi("read", thread, 3, b"x")

    def test_listen_without_network_rejected(self):
        kernel = Kernel(Simulator(), "n1")
        process = kernel.create_process("p", "10.0.0.1")
        with pytest.raises(KernelError, match="not attached"):
            kernel.listen(process, 80)

    def test_write_to_closed_socket_raises_broken_pipe(self):
        sim = Simulator(seed=1)
        builder = ClusterBuilder(node_count=2)
        a = builder.add_pod(0, "a")
        b = builder.add_pod(1, "b")
        network = Network(sim, builder.build())
        kernel_b = network.kernel_for_node(b.node.name)
        server_proc = kernel_b.create_process("srv", b.ip)
        server_thread = kernel_b.create_thread(server_proc)
        listener = kernel_b.listen(server_proc, 80)

        def server_loop():
            fd = yield from kernel_b.accept(server_thread, listener)
            kernel_b.close(server_thread, fd)

        kernel_a = network.kernel_for_node(a.node.name)
        client_proc = kernel_a.create_process("cli", a.ip)
        client_thread = kernel_a.create_thread(client_proc)

        def client():
            fd = yield from kernel_a.connect(client_thread, b.ip, 80)
            kernel_a.close(client_thread, fd)
            with pytest.raises(KernelError):
                yield from kernel_a.write(client_thread, fd, b"x")
            return "done"

        sim.spawn(server_loop())
        process = sim.spawn(client())
        assert sim.run_process(process) == "done"


class TestPerfBufferBlockingGet:
    def test_get_blocks_until_submit(self):
        sim = Simulator()
        buffer = PerfBuffer(sim, capacity=4)
        got = []

        def consumer():
            item = yield buffer.get()
            got.append((sim.now, item))

        def producer():
            yield 1.0
            buffer.submit("record")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got == [(1.0, "record")]

    def test_close_unblocks_with_error(self):
        from repro.sim.queue import QueueClosed
        sim = Simulator()
        buffer = PerfBuffer(sim)
        outcome = []

        def consumer():
            try:
                yield buffer.get()
            except QueueClosed:
                outcome.append("closed")

        sim.spawn(consumer())
        sim.run()
        buffer.close()
        sim.run()
        assert outcome == ["closed"]


def _record(direction, t, socket_id, payload, seq):
    ft = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 80)
    return SyscallRecord(
        pid=1, tid=100, coroutine_id=None, process_name="svc",
        socket_id=socket_id, five_tuple=ft, tcp_seq=seq,
        enter_time=t, exit_time=t + 1e-5, direction=direction,
        abi="read" if direction is Direction.INGRESS else "write",
        byte_len=len(payload), payload=payload, ret=len(payload),
        host_name="n1")


class TestEventDisorder:
    """§3.3.1: multi-core disorder must not break session aggregation."""

    def _events(self, exchanges=40):
        from repro.protocols import dubbo
        events = []
        t = 0.0
        for index in range(exchanges):
            t += 0.001
            events.append(_record(
                Direction.INGRESS, t, socket_id=index % 4,
                payload=dubbo.encode_request(index, "svc", "m"),
                seq=index * 50 + 1))
            t += 0.001
            events.append(_record(
                Direction.EGRESS, t, socket_id=index % 4,
                payload=dubbo.encode_response(index),
                seq=index * 20 + 1))
        return events

    @staticmethod
    def _shuffle_within_window(events, rng, window=4):
        """Local shuffles, as CPUs racing on the perf buffer produce."""
        shuffled = list(events)
        for start in range(0, len(shuffled) - window, window):
            chunk = shuffled[start:start + window]
            rng.shuffle(chunk)
            shuffled[start:start + window] = chunk
        return shuffled

    def test_locally_disordered_events_still_pair_by_stream_id(self):
        import random
        sim = Simulator(seed=5)
        kernel = Kernel(sim, "n1")
        agent = DeepFlowAgent(kernel, agent_index=1)
        events = self._shuffle_within_window(self._events(),
                                             random.Random(3))
        for event in events:
            agent._process_event(event)
        spans = agent.pending_spans
        # Every exchange pairs despite local disorder (multiplexed
        # matching by request id, not arrival order).
        complete = [span for span in spans if not span.is_error]
        assert len(complete) == 40
        assert all(span.protocol == "dubbo" for span in complete)

    def test_disorder_never_crashes_pipeline(self):
        import random
        for seed in range(5):
            sim = Simulator(seed=seed)
            kernel = Kernel(sim, "n1")
            agent = DeepFlowAgent(kernel, agent_index=1)
            events = self._shuffle_within_window(
                self._events(), random.Random(seed), window=6)
            for event in events:
                agent._process_event(event)
            assert agent.stats["events_processed"] == len(events)


class TestEventDispatch:
    """An event type no handler takes is counted as unknown, through
    ``poll()`` and ``_process_event`` alike; a subclass of a known type
    is resolved once and memoized."""

    class Heartbeat:
        """Some future kernel-side record the agent has no handler for."""

    class TaggedRecord(SyscallRecord):
        pass

    def test_unknown_event_type_is_counted_not_processed(self):
        agent = DeepFlowAgent(Kernel(Simulator(), "n1"), agent_index=1)
        request = http1.encode_request("GET", "/x")
        agent.perf.submit(_record(Direction.INGRESS, 0.1, 1, request, 1))
        agent.perf.submit(self.Heartbeat())
        agent._process_event(self.Heartbeat())
        assert agent.poll() == 2
        assert agent.stats["events_processed"] == 1
        assert agent.stats["syscall_records"] == 1
        assert agent.stats["unknown_events"] == 2
        assert agent.health()["unknown_events"] == 2
        assert self.Heartbeat not in agent._dispatch

    def test_subclass_of_known_type_is_memoized_and_processed(self):
        agent = DeepFlowAgent(Kernel(Simulator(), "n1"), agent_index=1)
        base = _record(Direction.INGRESS, 0.1, 1,
                       http1.encode_request("GET", "/x"), 1)
        fields = [getattr(base, name) for name in SyscallRecord.__slots__]
        agent.perf.submit(self.TaggedRecord(*fields))
        agent.poll()
        agent._process_event(self.TaggedRecord(*fields))
        assert agent._dispatch[self.TaggedRecord] \
            == agent._process_syscall_record
        assert agent.stats["events_processed"] == 2
        assert agent.stats["syscall_records"] == 2
        assert agent.stats["unknown_events"] == 0


class TestProxyFaultLifecycle:
    def test_clear_faults_restores_service(self):
        sim = Simulator(seed=6)
        builder = ClusterBuilder(node_count=2)
        lg = builder.add_pod(0, "lg")
        px = builder.add_pod(0, "px")
        be = builder.add_pod(1, "be")
        network = Network(sim, builder.build())
        backend = HttpService("be", be.node, 9000, pod=be)

        @backend.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        backend.start()
        proxy = NginxProxy("px", px.node, 8080, pod=px)
        proxy.add_route("/", [(be.ip, 9000)])
        proxy.start()
        proxy.inject_fault("/", status_code=404)

        kernel = network.kernel_for_node(lg.node.name)
        process = kernel.create_process("cli", lg.ip)
        thread = kernel.create_thread(process)
        from repro.apps.runtime import WorkerContext

        class _Shim:
            pass

        shim = _Shim()
        shim.kernel = kernel
        shim.ingress_abi = "read"
        shim.egress_abi = "write"
        shim.sim = sim
        worker = WorkerContext(shim, thread, None)

        def client():
            first = yield from worker.call_http(px.ip, 8080, "GET", "/x")
            proxy.clear_faults()
            second = yield from worker.call_http(px.ip, 8080, "GET", "/x")
            return first.status_code, second.status_code

        result = sim.run_process(sim.spawn(client()))
        assert result == (404, 200)
