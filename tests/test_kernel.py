"""Unit and integration tests for the simulated kernel."""

import pytest

from repro.kernel import (
    ALL_ABIS,
    BPFProgram,
    Direction,
    EGRESS_ABIS,
    INGRESS_ABIS,
    KernelError,
    ProgramBuilder,
    VerifierError,
    verify_bytecode,
    verify_program,
)
from repro.kernel.bpf_isa import R0, R1, R2, R6, R7, R10
from repro.kernel.ebpf import (
    EMPTY_PROGRAM_LATENCY_NS,
    PER_INSTRUCTION_LATENCY_NS,
    PerfBuffer,
)
from repro.kernel.syscalls import abi_direction


def _client_server(network, cluster, sim, server_handler, client_body):
    """Wire a minimal client/server pair of processes over the network."""
    client_node, server_node = cluster.nodes
    client_kernel = network.kernel_for_node(client_node.name)
    server_kernel = network.kernel_for_node(server_node.name)
    client_pod = client_node.pods[0]
    server_pod = server_node.pods[0]

    server_proc = server_kernel.create_process("server", server_pod.ip)
    server_thread = server_kernel.create_thread(server_proc)
    listener = server_kernel.listen(server_proc, 8080)

    def server_loop():
        fd = yield from server_kernel.accept(server_thread, listener)
        yield from server_handler(server_kernel, server_thread, fd)

    client_proc = client_kernel.create_process("client", client_pod.ip)
    client_thread = client_kernel.create_thread(client_proc)

    def client_main():
        fd = yield from client_kernel.connect(
            client_thread, server_pod.ip, 8080)
        result = yield from client_body(client_kernel, client_thread, fd)
        return result

    sim.spawn(server_loop(), name="server")
    return sim.spawn(client_main(), name="client")


class TestTable3ABIs:
    def test_ten_abis_total(self):
        assert len(ALL_ABIS) == 10
        assert len(INGRESS_ABIS) == 5
        assert len(EGRESS_ABIS) == 5

    def test_table3_names(self):
        assert set(INGRESS_ABIS) == {
            "recvmsg", "recvmmsg", "readv", "read", "recvfrom"}
        assert set(EGRESS_ABIS) == {
            "sendmsg", "sendmmsg", "writev", "write", "sendto"}

    def test_direction_classification(self):
        for abi in INGRESS_ABIS:
            assert abi_direction(abi) is Direction.INGRESS
        for abi in EGRESS_ABIS:
            assert abi_direction(abi) is Direction.EGRESS

    def test_unknown_abi_rejected(self):
        with pytest.raises(ValueError):
            abi_direction("ioctl")


def _unbounded_loop_bytecode():
    """A back-edge guarded by a never-changing unknown scalar — no trip
    bound is provable, and no self-declared flag is involved."""
    b = ProgramBuilder()
    b.ld_ctx(R6, "byte_len")
    b.label("spin")
    b.jne_imm(R6, 0, "spin")
    b.mov_imm(R0, 0)
    b.exit()
    return b.assemble()


class TestVerifier:
    def test_accepts_bounded_program(self):
        verify_program(BPFProgram("ok", lambda ctx: None, instructions=100))

    def test_accepts_bounded_bytecode_loop(self):
        b = ProgramBuilder()
        b.bounded_loop(R6, 10, lambda bb: bb.mov_imm(R7, 1))
        b.mov_imm(R0, 0)
        b.exit()
        program = BPFProgram("loop10", lambda ctx: None,
                             bytecode=b.assemble())
        verify_program(program)
        assert program.verified is not None
        assert program.verified.back_edge_count == 1

    def test_rejects_unbounded_loop(self):
        program = BPFProgram("loop", lambda ctx: None,
                             bytecode=_unbounded_loop_bytecode())
        with pytest.raises(VerifierError, match="back-edge"):
            verify_program(program)

    def test_rejects_uninitialized_register_read(self):
        b = ProgramBuilder()
        b.mov_reg(R0, R7)  # r7 never written
        b.exit()
        program = BPFProgram("uninit", lambda ctx: None,
                             bytecode=b.assemble())
        with pytest.raises(VerifierError, match="uninitialized"):
            verify_program(program)

    def test_rejects_oversized_program(self):
        program = BPFProgram("big", lambda ctx: None,
                             instructions=2_000_000)
        with pytest.raises(VerifierError, match="instructions"):
            verify_program(program)

    def test_rejects_oversized_bytecode_path(self):
        b = ProgramBuilder()
        b.bounded_loop(R6, 2000, lambda bb: bb.mov_imm(R7, 1))
        b.mov_imm(R0, 0)
        b.exit()
        bytecode = b.assemble()
        # Bounded, but its worst-case path exceeds the instruction limit.
        with pytest.raises(VerifierError, match="worst-case path"):
            verify_bytecode(bytecode, max_path=1000)
        # And with a small exploration budget it is "too complex" before
        # the bound is even proven — the kernel verifier's behaviour.
        with pytest.raises(VerifierError, match="too complex"):
            verify_bytecode(bytecode, state_budget=500)

    def test_rejects_deep_stack(self):
        program = BPFProgram("stack", lambda ctx: None, stack_bytes=4096)
        with pytest.raises(VerifierError, match="stack"):
            verify_program(program)

    def test_rejects_deep_bytecode_stack(self):
        b = ProgramBuilder()
        b.mov_imm(R2, 7)
        b.stack_store(-520, R2)  # below the 512-byte frame
        b.mov_imm(R0, 0)
        b.exit()
        program = BPFProgram("deep", lambda ctx: None,
                             bytecode=b.assemble())
        with pytest.raises(VerifierError, match="stack"):
            verify_program(program)

    def test_helper_whitelist_per_hook_type(self, kernels):
        b = ProgramBuilder()
        b.mov_reg(R1, R10)
        b.add_imm(R1, -8)
        b.mov_imm(R2, 8)
        b.call("probe_read_kernel")  # kernel reads from a uprobe: no
        b.mov_imm(R0, 0)
        b.exit()
        program = BPFProgram("ssl_sniff", lambda ctx: None,
                             bytecode=b.assemble())
        with pytest.raises(VerifierError, match="not allowed"):
            kernels[0].hooks.attach("uprobe:nginx:ssl_write", program)
        # The same bytecode is legal on a tracepoint.
        fresh = BPFProgram("ssl_sniff", lambda ctx: None,
                           bytecode=b.assemble())
        kernels[0].hooks.attach("sys_enter_read", fresh)

    def test_attach_runs_verifier_and_counts_rejections(self, kernels):
        bad = BPFProgram("bad", lambda ctx: None,
                         bytecode=_unbounded_loop_bytecode())
        assert kernels[0].hooks.verifier_rejections == 0
        with pytest.raises(VerifierError):
            kernels[0].hooks.attach("sys_enter_read", bad)
        assert kernels[0].hooks.verifier_rejections == 1
        assert not kernels[0].hooks.has_hook("sys_enter_read")

    def test_verified_count_drives_latency(self):
        b = ProgramBuilder()
        b.bounded_loop(R6, 50, lambda bb: bb.mov_imm(R7, 1))
        b.mov_imm(R0, 0)
        b.exit()
        program = BPFProgram("timed", lambda ctx: None,
                             instructions=99999,  # declared lie
                             bytecode=b.assemble())
        verify_program(program)
        worst = program.verified.worst_case_instructions
        assert worst != 99999
        assert program.effective_instructions == worst
        assert program.latency_ns == pytest.approx(
            EMPTY_PROGRAM_LATENCY_NS
            + worst * PER_INSTRUCTION_LATENCY_NS)


class TestHookRegistryDetach:
    def test_detach_prunes_empty_attach_points(self, kernels):
        registry = kernels[0].hooks
        before = registry.attach_points()
        program = BPFProgram("p", lambda ctx: None, instructions=10)
        registry.attach("sys_enter_read", program)
        assert "sys_enter_read" in registry.attach_points()
        registry.detach("sys_enter_read", program)
        # Regression: the empty list used to linger, overcounting
        # attach points for any iteration over the hook table.
        assert registry.attach_points() == before
        assert not registry.has_hook("sys_enter_read")

    def test_detach_keeps_point_with_remaining_programs(self, kernels):
        registry = kernels[0].hooks
        first = BPFProgram("a", lambda ctx: None, instructions=10)
        second = BPFProgram("b", lambda ctx: None, instructions=10)
        registry.attach("sys_enter_read", first)
        registry.attach("sys_enter_read", second)
        registry.detach("sys_enter_read", first)
        assert registry.attached("sys_enter_read") == [second]
        registry.detach("sys_enter_read", second)
        assert "sys_enter_read" not in registry.attach_points()

    def test_detach_unknown_hook_is_noop(self, kernels):
        program = BPFProgram("p", lambda ctx: None, instructions=10)
        kernels[0].hooks.detach("sys_enter_never_attached", program)

    def test_runtime_fault_contained(self, kernels, sim):
        def crashes(ctx):
            raise RuntimeError("bug in program")

        program = BPFProgram("crashy", crashes)
        kernels[0].hooks.attach("test_hook", program)
        cost = kernels[0].hooks.fire("test_hook", object())
        assert cost > 0
        assert program.runtime_faults == 1  # contained, not propagated


class TestSyscalls:
    def test_echo_round_trip(self, network, cluster, sim):
        def server(kernel, thread, fd):
            data = yield from kernel.read(thread, fd)
            yield from kernel.write(thread, fd, b"pong:" + data)

        def client(kernel, thread, fd):
            yield from kernel.write(thread, fd, b"ping")
            reply = yield from kernel.read(thread, fd)
            return reply

        process = _client_server(network, cluster, sim, server, client)
        assert sim.run_process(process) == b"pong:ping"

    def test_tcp_seq_preserved_end_to_end(self, network, cluster, sim):
        observed = {}

        def server(kernel, thread, fd):
            sock = kernel.socket_for_fd(thread, fd)
            yield from kernel.read(thread, fd)
            observed["server_rx_first_seq"] = sock.rx_next_seq - 7

        def client(kernel, thread, fd):
            sock = kernel.socket_for_fd(thread, fd)
            observed["client_tx_first_seq"] = sock.tx_next_seq
            yield from kernel.write(thread, fd, b"0123456")
            yield 0.01

        process = _client_server(network, cluster, sim, server, client)
        sim.run_process(process)
        sim.run()
        assert (observed["client_tx_first_seq"]
                == observed["server_rx_first_seq"])

    def test_every_abi_round_trips(self, network, cluster, sim):
        """All ten Table 3 ABIs move bytes correctly."""
        for ingress, egress in zip(INGRESS_ABIS, EGRESS_ABIS):
            def server(kernel, thread, fd, _in=ingress, _out=egress):
                data = yield from kernel.recv_abi(_in, thread, fd)
                yield from kernel.send_abi(_out, thread, fd, data.upper())

            def client(kernel, thread, fd, _in=ingress, _out=egress):
                yield from kernel.send_abi(_out, thread, fd, b"abc")
                return (yield from kernel.recv_abi(_in, thread, fd))

            builder_sim = type(sim)(seed=1)
            from repro.network.topology import ClusterBuilder
            from repro.network.transport import Network
            builder = ClusterBuilder(node_count=2)
            builder.add_pod(0, "c")
            builder.add_pod(1, "s")
            local_cluster = builder.build()
            local_network = Network(builder_sim, local_cluster)
            process = _client_server(
                local_network, local_cluster, builder_sim, server, client)
            assert builder_sim.run_process(process) == b"ABC"

    def test_blocking_read_waits_for_data(self, network, cluster, sim):
        times = {}

        def server(kernel, thread, fd):
            yield 0.5  # think before answering
            yield from kernel.write(thread, fd, b"slow answer")

        def client(kernel, thread, fd):
            start = sim.now
            data = yield from kernel.read(thread, fd)
            times["waited"] = sim.now - start
            return data

        process = _client_server(network, cluster, sim, server, client)
        assert sim.run_process(process) == b"slow answer"
        assert times["waited"] >= 0.5

    def test_read_after_close_returns_eof(self, network, cluster, sim):
        def server(kernel, thread, fd):
            yield from kernel.read(thread, fd)
            kernel.close(thread, fd)

        def client(kernel, thread, fd):
            yield from kernel.write(thread, fd, b"x")
            first = yield from kernel.read(thread, fd)
            return first

        process = _client_server(network, cluster, sim, server, client)
        assert sim.run_process(process) == b""  # EOF

    def test_connect_refused_when_nothing_listens(self, network, cluster,
                                                  sim):
        node = cluster.nodes[0]
        kernel = network.kernel_for_node(node.name)
        proc = kernel.create_process("lonely", node.pods[0].ip)
        thread = kernel.create_thread(proc)

        def main():
            with pytest.raises(ConnectionRefusedError):
                yield from kernel.connect(thread, "10.0.2.2", 9999)
            return "refused"

        process = sim.spawn(main())
        assert sim.run_process(process) == "refused"

    def test_accept_returns_the_installed_fd_of_each_kept_connection(
            self, network, cluster, sim):
        """200 connections accepted and kept open: every fd returned is the
        one installed when the connection arrived (no fd-table scan), in
        arrival order, and resolves to the socket paired with the client."""
        client_node, server_node = cluster.nodes
        client_kernel = network.kernel_for_node(client_node.name)
        server_kernel = network.kernel_for_node(server_node.name)
        server_proc = server_kernel.create_process(
            "server", server_node.pods[0].ip)
        server_thread = server_kernel.create_thread(server_proc)
        listener = server_kernel.listen(server_proc, 8080)
        client_proc = client_kernel.create_process(
            "client", client_node.pods[0].ip)
        client_thread = client_kernel.create_thread(client_proc)
        accepted = []

        def acceptor():
            while len(accepted) < 200:
                fd = yield from server_kernel.accept(server_thread, listener)
                accepted.append(
                    (fd, server_kernel.socket_for_fd(server_thread, fd)))

        def dialer():
            for _ in range(200):
                yield from client_kernel.connect(
                    client_thread, server_node.pods[0].ip, 8080)

        done = sim.spawn(acceptor())
        sim.spawn(dialer())
        sim.run_process(done)
        fds = [fd for fd, _sock in accepted]
        assert fds == list(range(3, 203))
        flows = {id(flow.server): flow for flow in network.flows}
        assert [flows[id(sock)].flow_id for _fd, sock in accepted] \
            == list(range(1, 201))

    def test_accept_of_a_socket_closed_in_the_backlog_raises(
            self, network, cluster, sim):
        client_node, server_node = cluster.nodes
        client_kernel = network.kernel_for_node(client_node.name)
        server_kernel = network.kernel_for_node(server_node.name)
        server_proc = server_kernel.create_process(
            "server", server_node.pods[0].ip)
        server_thread = server_kernel.create_thread(server_proc)
        listener = server_kernel.listen(server_proc, 8080)
        client_proc = client_kernel.create_process(
            "client", client_node.pods[0].ip)
        client_thread = client_kernel.create_thread(client_proc)

        def late_acceptor():
            yield 1.0
            server_kernel.close(server_thread, 3)  # still in the backlog
            yield from server_kernel.accept(server_thread, listener)

        sim.spawn(client_kernel.connect(
            client_thread, server_node.pods[0].ip, 8080))
        process = sim.spawn(late_acceptor())
        with pytest.raises(KernelError, match="missing from fd table"):
            sim.run_process(process)

    def test_bad_fd_raises(self, kernels):
        kernel = kernels[0]
        proc = kernel.create_process("p", "10.0.1.2")
        thread = kernel.create_thread(proc)
        with pytest.raises(KernelError, match="bad fd"):
            kernel.socket_for_fd(thread, 99)

    def test_double_listen_rejected(self, network, cluster):
        node = cluster.nodes[0]
        kernel = network.kernel_for_node(node.name)
        proc = kernel.create_process("p", node.pods[0].ip)
        kernel.listen(proc, 80)
        with pytest.raises(KernelError, match="in use"):
            kernel.listen(proc, 80)


class TestHookDispatch:
    def test_enter_and_exit_hooks_fire_with_contexts(self, network, cluster,
                                                     sim):
        seen = []
        program = BPFProgram("probe", seen.append)
        for kernel in network.kernels.values():
            for abi in ("read", "write"):
                kernel.hooks.attach(f"sys_enter_{abi}", program)
                kernel.hooks.attach(f"sys_exit_{abi}", program)

        def server(kernel, thread, fd):
            data = yield from kernel.read(thread, fd)
            yield from kernel.write(thread, fd, data)

        def client(kernel, thread, fd):
            yield from kernel.write(thread, fd, b"hello")
            return (yield from kernel.read(thread, fd))

        process = _client_server(network, cluster, sim, server, client)
        sim.run_process(process)
        enters = [ctx for ctx in seen if ctx.is_enter]
        exits = [ctx for ctx in seen if not ctx.is_enter]
        assert len(enters) == 4 and len(exits) == 4
        egress_exit = next(ctx for ctx in exits
                           if ctx.direction is Direction.EGRESS
                           and ctx.process_name == "client")
        assert egress_exit.payload == b"hello"
        assert egress_exit.tcp_seq >= 1
        assert egress_exit.ret == 5

    def test_hook_latency_slows_syscalls(self, cluster, sim):
        """With hooks attached, the same workload takes measurably longer."""
        from repro.network.topology import ClusterBuilder
        from repro.network.transport import Network

        def run_once(attach_hooks):
            local_sim = type(sim)(seed=5)
            builder = ClusterBuilder(node_count=2)
            builder.add_pod(0, "c")
            builder.add_pod(1, "s")
            local_cluster = builder.build()
            local_network = Network(local_sim, local_cluster)
            if attach_hooks:
                program = BPFProgram("p", lambda ctx: None,
                                     instructions=2000)
                for kernel in local_network.kernels.values():
                    for abi in ALL_ABIS:
                        kernel.hooks.attach(f"sys_enter_{abi}", program)
                        kernel.hooks.attach(f"sys_exit_{abi}", program)

            def server(kernel, thread, fd):
                for _ in range(100):
                    data = yield from kernel.read(thread, fd)
                    yield from kernel.write(thread, fd, data)

            def client(kernel, thread, fd):
                for _ in range(100):
                    yield from kernel.write(thread, fd, b"x" * 64)
                    yield from kernel.read(thread, fd)
                return local_sim.now

            process = _client_server(local_network, local_cluster,
                                     local_sim, server, client)
            return local_sim.run_process(process)

        assert run_once(True) > run_once(False)

    def test_perf_buffer_drops_when_full(self, sim):
        buffer = PerfBuffer(sim, capacity=2)
        assert buffer.submit(1)
        assert buffer.submit(2)
        assert not buffer.submit(3)
        assert buffer.dropped == 1
        assert buffer.drain() == [1, 2]


class TestCoroutines:
    def test_creation_event_carries_parent(self, kernels):
        kernel = kernels[0]
        events = []
        kernel.hooks.attach("coroutine_create",
                            BPFProgram("co", events.append))
        proc = kernel.create_process("go-app", "10.0.1.2")
        thread = kernel.create_thread(proc)
        parent = kernel.create_coroutine(thread)
        child = kernel.create_coroutine(thread, parent=parent)
        assert len(events) == 2
        assert events[0].parent_coroutine_id is None
        assert events[1].parent_coroutine_id == parent.coroutine_id
        assert child.parent is parent

    def test_syscall_context_carries_coroutine_id(self, network, cluster,
                                                  sim):
        seen = []
        program = BPFProgram("probe", seen.append)
        for kernel in network.kernels.values():
            kernel.hooks.attach("sys_enter_write", program)

        def server(kernel, thread, fd):
            yield from kernel.read(thread, fd)

        def client(kernel, thread, fd):
            coroutine = kernel.create_coroutine(thread)
            thread.current_coroutine = coroutine
            yield from kernel.write(thread, fd, b"from-coroutine")

        process = _client_server(network, cluster, sim, server, client)
        sim.run_process(process)
        assert seen[0].coroutine_id is not None
