"""Kernel hook contexts, kernel-side records and segment delivery are what
they were before the per-syscall / per-segment make-work was removed.

Two references live here, each frozen from the commit before the rewrite
(one re-anchor window, like ``tests/sim_engine_oracle.py``):

* ``_parent_context`` — ``Kernel._context``, the 16-keyword builder both
  generic syscall paths used to call twice per syscall.  A probe attached
  to every hook point rebuilds the expected context with it *at fire time*
  (same clock, same live thread state) and the test requires the context
  the kernel handed over to equal it field for field;
* ``ParentFlow`` — ``Flow._direction`` / ``_transmit`` /
  ``_evaluate_faults`` as they were: a ``SegmentDecision`` per device per
  segment, armed or not.  The same scenario runs in two worlds that differ
  only in the ``Flow`` class and must agree on delivery instants, device
  counters, capture records, flow metrics and ``sim.rng`` consumption.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.agent.agent import DeepFlowAgent
from repro.kernel import BPFProgram, Direction, EGRESS_ABIS, INGRESS_ABIS
from repro.kernel.kernel import NS, PAYLOAD_CAPTURE_BYTES, SYSCALL_BASE_NS
from repro.kernel.process import Coroutine
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import (
    HOOK_NAMES,
    CoroutineEvent,
    SocketCloseEvent,
    SyscallContext,
    SyscallRecord,
    UserProbeRecord,
)
from repro.network import transport
from repro.network.captures import CaptureTap
from repro.network.faults import (
    DropFault,
    LatencyFault,
    ResetFault,
    SegmentDecision,
)
from repro.network.topology import ClusterBuilder
from repro.sim.engine import Simulator

# -- kernel contexts ---------------------------------------------------------


def _parent_context(kernel, thread, sock, abi, direction, is_enter, *,
                    tcp_seq=0, byte_len=0, payload=b"", ret=0,
                    coroutine_id=None):
    """``Kernel._context`` of the parent commit, keyword for keyword."""
    return SyscallContext(
        pid=thread.pid,
        tid=thread.tid,
        coroutine_id=(coroutine_id if coroutine_id is not None
                      else thread.coroutine_id),
        process_name=thread.process.name,
        socket_id=sock.socket_id,
        five_tuple=sock.five_tuple,
        tcp_seq=tcp_seq,
        timestamp=kernel.sim.now,
        direction=direction,
        is_enter=is_enter,
        abi=abi,
        byte_len=byte_len,
        payload=payload[:PAYLOAD_CAPTURE_BYTES],
        ret=ret,
        host_name=kernel.host_name,
    )


class GoldenProbe:
    """Attached to every syscall hook of one kernel: stores each context
    seen next to the one the parent's builder makes at the same instant.

    The test announces each syscall with :meth:`expect`; what it passes is
    what the old call sites passed to ``_context`` — including the
    coroutine id read *before* the call, the snapshot the parent took.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.pairs = []  # (hook name, seen, golden)
        self._expected = {}
        program = BPFProgram("golden", self._on_fire)
        for enter_hook, exit_hook in HOOK_NAMES.values():
            kernel.hooks.attach(enter_hook, program)
            kernel.hooks.attach(exit_hook, program)

    def expect(self, thread, fd, abi, direction, *, enter, exit_):
        sock = self.kernel.socket_for_fd(thread, fd)
        self._expected[thread.tid] = (
            thread, sock, abi, direction, thread.coroutine_id, enter, exit_)

    def _on_fire(self, ctx):
        thread, sock, abi, direction, snapshot, enter, exit_ = \
            self._expected[ctx.tid]
        fields = enter if ctx.is_enter else exit_
        golden = _parent_context(self.kernel, thread, sock, abi, direction,
                                 ctx.is_enter, coroutine_id=snapshot,
                                 **fields)
        prefix = "sys_enter_" if ctx.is_enter else "sys_exit_"
        self.pairs.append((prefix + ctx.abi, copy.copy(ctx), golden))

    def assert_identical(self, expected_hooks):
        assert [hook for hook, _seen, _golden in self.pairs] \
            == expected_hooks
        for _hook, seen, golden in self.pairs:
            assert type(seen) is SyscallContext
            for field in dataclasses.fields(SyscallContext):
                assert getattr(seen, field.name) \
                    == getattr(golden, field.name), field.name


def _world(seed=42):
    sim = Simulator(seed=seed)
    builder = ClusterBuilder(node_count=2)
    builder.add_pod(0, "client-pod", labels={"app": "client"})
    builder.add_pod(1, "server-pod", labels={"app": "server"})
    cluster = builder.build()
    return sim, cluster, transport.Network(sim, cluster)


def _endpoints(network, cluster):
    client_node, server_node = cluster.nodes
    client_kernel = network.kernel_for_node(client_node.name)
    server_kernel = network.kernel_for_node(server_node.name)
    server_proc = server_kernel.create_process(
        "server", server_node.pods[0].ip)
    client_proc = client_kernel.create_process(
        "client", client_node.pods[0].ip)
    return (client_kernel, client_kernel.create_thread(client_proc),
            server_kernel, server_kernel.create_thread(server_proc),
            server_kernel.listen(server_proc, 8080),
            server_node.pods[0].ip)


def _call(kernel, name, thread, fd, arg):
    """Invoke ABI *name* — a method name or ``recv_abi:x`` / ``send_abi:x``
    — returning (generator, abi stamped into the contexts)."""
    if ":" in name:
        method, abi = name.split(":")
        return getattr(kernel, method)(abi, thread, fd, arg), abi
    return getattr(kernel, name)(thread, fd, arg), name


ABI_PAIRS = list(zip(EGRESS_ABIS, INGRESS_ABIS)) \
    + [("send_abi:sendto", "recv_abi:recvfrom")]


@pytest.mark.parametrize("send_name,recv_name", ABI_PAIRS)
@pytest.mark.parametrize("size", [5, PAYLOAD_CAPTURE_BYTES + 904])
def test_every_abi_hands_programs_the_parents_contexts(send_name, recv_name,
                                                       size):
    sim, cluster, network = _world()
    (client_kernel, client_thread, server_kernel, server_thread, listener,
     server_ip) = _endpoints(network, cluster)
    client_probe = GoldenProbe(client_kernel)
    server_probe = GoldenProbe(server_kernel)
    request = bytes(range(256)) * 20
    request = request[:size]
    reply = b"ok:" + request[:3]

    def server():
        fd = yield from server_kernel.accept(server_thread, listener)
        sock = server_kernel.socket_for_fd(server_thread, fd)
        gen, abi = _call(server_kernel, recv_name, server_thread, fd, 65536)
        server_probe.expect(
            server_thread, fd, abi, Direction.INGRESS, enter={},
            exit_=dict(tcp_seq=sock.rx_next_seq, byte_len=size,
                       payload=request, ret=size))
        data = yield from gen
        assert data == request
        gen, abi = _call(server_kernel, send_name, server_thread, fd, reply)
        server_probe.expect(
            server_thread, fd, abi, Direction.EGRESS,
            enter=dict(tcp_seq=sock.tx_next_seq, byte_len=len(reply),
                       payload=reply),
            exit_=dict(tcp_seq=sock.tx_next_seq, byte_len=len(reply),
                       payload=reply, ret=len(reply)))
        assert (yield from gen) == len(reply)

    def client():
        fd = yield from client_kernel.connect(client_thread, server_ip, 8080)
        sock = client_kernel.socket_for_fd(client_thread, fd)
        gen, abi = _call(client_kernel, send_name, client_thread, fd,
                         request)
        client_probe.expect(
            client_thread, fd, abi, Direction.EGRESS,
            enter=dict(tcp_seq=sock.tx_next_seq, byte_len=size,
                       payload=request),
            exit_=dict(tcp_seq=sock.tx_next_seq, byte_len=size,
                       payload=request, ret=size))
        assert (yield from gen) == size
        gen, abi = _call(client_kernel, recv_name, client_thread, fd, 65536)
        client_probe.expect(
            client_thread, fd, abi, Direction.INGRESS, enter={},
            exit_=dict(tcp_seq=sock.rx_next_seq, byte_len=len(reply),
                       payload=reply, ret=len(reply)))
        return (yield from gen)

    sim.spawn(server(), name="server")
    assert sim.run_process(sim.spawn(client(), name="client")) == reply
    send_abi = send_name.split(":")[-1]
    recv_abi = recv_name.split(":")[-1]
    client_probe.assert_identical(
        [f"sys_enter_{send_abi}", f"sys_exit_{send_abi}",
         f"sys_enter_{recv_abi}", f"sys_exit_{recv_abi}"])
    server_probe.assert_identical(
        [f"sys_enter_{recv_abi}", f"sys_exit_{recv_abi}",
         f"sys_enter_{send_abi}", f"sys_exit_{send_abi}"])
    truncated = client_probe.pairs[0][1]
    assert len(truncated.payload) == min(size, PAYLOAD_CAPTURE_BYTES)
    assert truncated.byte_len == size
    assert client_kernel.syscall_count == server_kernel.syscall_count == 2


@pytest.mark.parametrize("entered_in_coroutine", [True, False])
def test_coroutine_id_is_the_entry_snapshot_when_the_thread_moves_on(
        entered_in_coroutine):
    """A blocking read returns after the thread's coroutine pointer moved:
    the exit context still names the coroutine that entered.  A thread
    that entered *outside* any coroutine reports the one current at exit —
    what the parent's ``coroutine_id if ... is not None else`` did."""
    sim, cluster, network = _world()
    (client_kernel, client_thread, server_kernel, server_thread, listener,
     server_ip) = _endpoints(network, cluster)
    probe = GoldenProbe(server_kernel)
    first = Coroutine(11, server_thread)
    second = Coroutine(12, server_thread)

    def server():
        fd = yield from server_kernel.accept(server_thread, listener)
        sock = server_kernel.socket_for_fd(server_thread, fd)
        server_thread.current_coroutine = \
            first if entered_in_coroutine else None
        probe.expect(server_thread, fd, "read", Direction.INGRESS, enter={},
                     exit_=dict(tcp_seq=sock.rx_next_seq, byte_len=4,
                                payload=b"ping", ret=4))
        return (yield from server_kernel.read(server_thread, fd))

    def client():
        fd = yield from client_kernel.connect(client_thread, server_ip, 8080)
        yield 0.01  # the server is parked in read() by now
        server_thread.current_coroutine = second
        yield from client_kernel.write(client_thread, fd, b"ping")

    reader = sim.spawn(server(), name="server")
    sim.spawn(client(), name="client")
    assert sim.run_process(reader) == b"ping"
    probe.assert_identical(["sys_enter_read", "sys_exit_read"])
    enter_ctx, exit_ctx = probe.pairs[0][1], probe.pairs[1][1]
    assert enter_ctx.coroutine_id == (11 if entered_in_coroutine else None)
    assert exit_ctx.coroutine_id == (11 if entered_in_coroutine else 12)


def test_reset_fires_the_exit_hook_before_raising():
    sim, cluster, network = _world()
    (client_kernel, client_thread, server_kernel, server_thread, listener,
     server_ip) = _endpoints(network, cluster)
    probe = GoldenProbe(client_kernel)
    order = []

    def server():
        fd = yield from server_kernel.accept(server_thread, listener)
        yield 0.01
        server_kernel.socket_for_fd(server_thread, fd).flow.reset()

    def client():
        fd = yield from client_kernel.connect(client_thread, server_ip, 8080)
        probe.expect(client_thread, fd, "recvmsg", Direction.INGRESS,
                     enter={}, exit_=dict(ret=-104))
        try:
            yield from client_kernel.recvmsg(client_thread, fd)
        except ConnectionResetError:
            order.append(("raised", [hook for hook, *_ in probe.pairs]))

    sim.spawn(server(), name="server")
    sim.run_process(sim.spawn(client(), name="client"))
    assert order == [("raised", ["sys_enter_recvmsg", "sys_exit_recvmsg"])]
    probe.assert_identical(["sys_enter_recvmsg", "sys_exit_recvmsg"])
    exit_ctx = probe.pairs[1][1]
    assert (exit_ctx.ret, exit_ctx.byte_len, exit_ctx.payload,
            exit_ctx.tcp_seq) == (-104, 0, b"", 0)


def test_bare_kernel_charges_the_base_cost_and_nothing_else():
    sim, cluster, network = _world()
    (client_kernel, client_thread, server_kernel, server_thread, listener,
     server_ip) = _endpoints(network, cluster)
    spent = {}

    def server():
        fd = yield from server_kernel.accept(server_thread, listener)
        yield from server_kernel.read(server_thread, fd)

    def client():
        fd = yield from client_kernel.connect(client_thread, server_ip, 8080)
        start = sim.now
        assert (yield from client_kernel.write(client_thread, fd, b"x")) == 1
        spent["write"] = sim.now - start

    sim.spawn(server(), name="server")
    sim.run_process(sim.spawn(client(), name="client"))
    assert spent["write"] == pytest.approx(SYSCALL_BASE_NS * NS, rel=1e-9)
    assert client_kernel.hooks.total_firings == 0
    assert client_kernel.hooks.total_cost_ns == 0.0


def test_agent_exit_program_builds_the_parents_record():
    """``DeepFlowAgent._on_exit`` merged enter + exit by keyword; the
    positional build must land every value in the same field."""
    sim, cluster, network = _world()
    kernel = network.kernel_for_node(cluster.nodes[0].name)
    agent = DeepFlowAgent(kernel, 0)
    five_tuple = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 80)

    def ctx(is_enter, timestamp, **fields):
        values = dict(pid=7, tid=9, coroutine_id=3, process_name="svc",
                      socket_id=21, five_tuple=five_tuple, tcp_seq=0,
                      timestamp=timestamp, direction=Direction.INGRESS,
                      is_enter=is_enter, abi="recvfrom", host_name="node-x")
        values.update(fields)
        return SyscallContext(**values)

    agent._on_enter(ctx(True, 1.5))
    agent._on_exit(ctx(False, 1.75, tcp_seq=101, byte_len=4,
                       payload=b"data", ret=4))
    agent._on_enter(ctx(True, 2.0, direction=Direction.EGRESS, abi="sendto",
                        tcp_seq=55, byte_len=2, payload=b"hi"))
    agent._on_exit(ctx(False, 2.25, direction=Direction.EGRESS,
                       abi="sendto", tcp_seq=55, byte_len=2, payload=b"hi",
                       ret=2))
    received, sent = agent.perf.drain()
    assert received == SyscallRecord(
        pid=7, tid=9, coroutine_id=3, process_name="svc", socket_id=21,
        five_tuple=five_tuple, tcp_seq=101, enter_time=1.5, exit_time=1.75,
        direction=Direction.INGRESS, abi="recvfrom", byte_len=4,
        payload=b"data", ret=4, host_name="node-x", payload_shed=False,
        shed_head=False, shed_is_request=False)
    assert sent == dataclasses.replace(
        received, tcp_seq=55, enter_time=2.0, exit_time=2.25,
        direction=Direction.EGRESS, abi="sendto", byte_len=2,
        payload=b"hi", ret=2)
    assert received.duration == 0.25
    assert not hasattr(received, "extra")


RECORDS = [
    SyscallContext(1, 2, None, "p", 3, FiveTuple("a", 1, "b", 2), 4, 0.5,
                   Direction.EGRESS, True, "write", 5, b"hello", 0, "h"),
    SyscallRecord(1, 2, 9, "p", 3, FiveTuple("a", 1, "b", 2), 4, 0.5, 0.75,
                  Direction.INGRESS, "read", 5, b"hello", 5, "h", True),
    CoroutineEvent("create", 1, 2, 3, None, 0.5, "h"),
    SocketCloseEvent(1, 2, 3, FiveTuple("a", 1, "b", 2), 0.5, "h"),
    UserProbeRecord(1, 2, None, "p", "ssl_write", 0.5, 0.5, b"x", 3,
                    Direction.EGRESS, "h"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slotted_records_still_copy_replace_and_pickle(record):
    """The replay workloads ``copy.copy`` their tapes; slots must not cost
    the records their dataclass behaviour."""
    assert not hasattr(record, "__dict__")
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record)),
                 dataclasses.replace(record)):
        assert twin == record and twin is not record
    moved = dataclasses.replace(record, pid=99)
    assert moved.pid == 99 and moved != record
    assert dataclasses.asdict(moved)["pid"] == 99
    with pytest.raises(AttributeError):
        record.not_a_field = 1


# -- segment delivery --------------------------------------------------------


class ParentFlow(transport.Flow):
    """``Flow`` with the parent commit's per-segment path."""

    def _direction(self, sock):
        return "c2s" if sock is self.client else "s2c"

    def _transmit(self, from_sock, seq, data):
        direction = self._direction(from_sock)
        peer = self._peer(from_sock)
        devices = self.path if direction == "c2s" else list(
            reversed(self.path))
        rto = transport.INITIAL_RTO
        attempts = 0
        while True:
            sent_at = self.sim.now
            cumulative = 0.0
            dropped = False
            for index, device in enumerate(devices):
                cumulative += device.latency
                decision = self._evaluate_faults(device)
                cumulative += decision.extra_latency
                if decision.reset:
                    device.resets_generated += 1
                    yield cumulative
                    self._reset_both()
                    return
                if decision.drop:
                    device.segments_dropped += 1
                    self.metrics.retransmissions += 1
                    dropped = True
                    break
                device.segments_forwarded += 1
                if device.capture_callbacks:
                    self._capture(device, index, direction, seq, data,
                                  sent_at + cumulative)
            if dropped:
                attempts += 1
                if attempts > transport.MAX_RETRANSMISSIONS:
                    self.metrics.lost_segments += 1
                    return
                yield rto
                rto *= 2
                continue
            yield cumulative
            if self.reset_happened:
                return
            self.metrics.record_segment(direction, len(data), cumulative)
            peer.deliver(seq, data)
            return

    def _evaluate_faults(self, device):
        combined = SegmentDecision()
        for fault in device.faults:
            decision = fault.on_segment(self.sim.rng)
            if decision is None:
                continue
            combined.drop = combined.drop or decision.drop
            combined.reset = combined.reset or decision.reset
            combined.extra_latency += decision.extra_latency
        return combined


def _exchange(seed, arm, messages=40):
    """*messages* request/reply pairs over one connection; everything an
    observer of the network could compare afterwards."""
    sim, cluster, network = _world(seed)
    (client_kernel, client_thread, server_kernel, server_thread, listener,
     server_ip) = _endpoints(network, cluster)
    taps = {}
    for node in cluster.nodes:
        for device in (node.nic, node.vswitch):
            taps[device.name] = tap = CaptureTap()
            network.enable_capture(device, tap)
    arm(cluster)
    log = []

    def server():
        fd = yield from server_kernel.accept(server_thread, listener)
        try:
            while True:
                data = yield from server_kernel.read(server_thread, fd)
                if not data:
                    return
                log.append((sim.now, "server", data))
                yield from server_kernel.write(server_thread, fd,
                                               b"re:" + data)
        except (ConnectionResetError, BrokenPipeError) as exc:
            log.append((sim.now, "server", type(exc).__name__))

    def client():
        fd = yield from client_kernel.connect(client_thread, server_ip, 8080)
        try:
            for index in range(messages):
                yield from client_kernel.write(
                    client_thread, fd, b"m%03d" % index * (1 + index % 3))
                log.append((sim.now, "client",
                            (yield from client_kernel.read(client_thread,
                                                           fd))))
        except (ConnectionResetError, BrokenPipeError) as exc:
            log.append((sim.now, "client", type(exc).__name__))
        client_kernel.close(client_thread, fd)

    sim.spawn(server(), name="server")
    sim.spawn(client(), name="client")
    sim.run(until=600.0)
    flow = network.flows[0]
    devices = {device.name: (device.segments_forwarded,
                             device.segments_dropped,
                             device.resets_generated)
               for device in flow.path}
    metrics = flow.metrics
    return {
        "flow_class": type(flow).__name__,
        "log": log,
        "devices": devices,
        "captures": {name: tap.records for name, tap in taps.items()},
        "retransmissions": metrics.retransmissions,
        "lost": metrics.lost_segments,
        "resets": metrics.resets,
        "next_random": sim.rng.random(),
        "seq": sim._seq,
    }


def _tor(cluster):
    return cluster.tor


SCENARIOS = {
    "fault-free": lambda cluster: None,
    "zero-latency-fault": lambda cluster: _tor(cluster).add_fault(
        LatencyFault(0.0)),
    "drop": lambda cluster: _tor(cluster).add_fault(DropFault(0.3)),
    "heavy-drop-loses-segments": lambda cluster: _tor(cluster).add_fault(
        DropFault(0.8)),
    "reset": lambda cluster: _tor(cluster).add_fault(ResetFault(0.04)),
    "drop-then-jitter-on-two-devices": lambda cluster: (
        cluster.nodes[0].nic.add_fault(DropFault(0.2)),
        cluster.nodes[0].nic.add_fault(LatencyFault(1e-4, jitter=5e-5)),
        cluster.nodes[1].vswitch.add_fault(LatencyFault(0.0, jitter=1e-5))),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [3, 11])
def test_transmit_matches_the_parents_per_segment_path(monkeypatch,
                                                       scenario, seed):
    arm = SCENARIOS[scenario]
    new = _exchange(seed, arm)
    monkeypatch.setattr(transport, "Flow", ParentFlow)
    old = _exchange(seed, arm)
    assert (new.pop("flow_class"), old.pop("flow_class")) \
        == ("Flow", "ParentFlow")
    assert new == old
    assert sum(forwarded for forwarded, _d, _r in new["devices"].values())
    if scenario in ("fault-free", "zero-latency-fault"):
        assert new["retransmissions"] == new["resets"] == 0
        assert len(new["log"]) == 80
    elif scenario.startswith(("drop", "heavy")):
        assert new["retransmissions"] > 0
    if scenario == "heavy-drop-loses-segments":
        assert new["lost"] > 0
    if scenario == "reset":
        assert new["resets"] == 1


def test_fault_free_hop_allocates_no_decision(monkeypatch):
    """The fast path is a branch, not a cheaper allocation: with nothing
    armed ``_evaluate_faults`` is never entered; arming one device makes
    it the only device evaluated."""
    calls = []
    real = transport.Flow._evaluate_faults

    def counting(self, device):
        calls.append(device.name)
        return real(self, device)

    monkeypatch.setattr(transport.Flow, "_evaluate_faults", counting)
    _exchange(3, SCENARIOS["fault-free"], messages=3)
    assert calls == []
    _exchange(3, SCENARIOS["zero-latency-fault"], messages=3)
    assert len(calls) >= 6 and len(set(calls)) == 1
