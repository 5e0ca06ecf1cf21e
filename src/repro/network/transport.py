"""Connection establishment and segment delivery.

The :class:`Network` owns the cluster topology, the kernels attached to its
nodes, the listener registry, and per-flow metrics.  A :class:`Flow` is one
established TCP connection: it carries segments end to end along the device
path, preserving sequence numbers, firing capture callbacks, applying
faults, and modelling retransmission on loss.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.kernel.kernel import Kernel
from repro.kernel.sockets import FiveTuple, Socket, SocketState
from repro.network.captures import PacketRecord
from repro.network.faults import ConnectDecision, SegmentDecision
from repro.network.metrics import FlowMetrics, FlowMetricsStore
from repro.network.topology import Cluster, Device, Node, Pod
from repro.sim.engine import Simulator

#: Initial TCP retransmission timeout, seconds.
INITIAL_RTO = 0.2

#: Give up after this many retransmissions of one segment.
MAX_RETRANSMISSIONS = 5


class Network:
    """The data-center fabric: topology + kernels + flows."""

    def __init__(self, sim: Simulator, cluster: Cluster):
        self.sim = sim
        self.clusters: list[Cluster] = [cluster]
        self.kernels: dict[str, Kernel] = {}
        self.metrics = FlowMetricsStore()
        #: Shared devices on every inter-cluster path (WAN gateways).
        self.backbone: list[Device] = []
        self._listeners: dict[tuple[str, int], Kernel] = {}
        self._next_socket_id = 1
        self._next_flow_id = 1
        self._arp_cache: set[tuple[str, str]] = set()
        self.flows: list[Flow] = []
        for node in cluster.nodes:
            self.attach_kernel(node)

    @property
    def cluster(self) -> Cluster:
        """The first (primary) cluster — kept for single-cluster use."""
        return self.clusters[0]

    def add_cluster(self, cluster: Cluster,
                    backbone: Optional[list[Device]] = None) -> None:
        """Join another Kubernetes cluster to this fabric.

        Cross-cluster paths traverse each side's ToR plus the shared
        *backbone* devices (WAN links / L4 gateways) — the multi-cluster
        deployment the paper supports via Helm (§4.1).
        """
        self.clusters.append(cluster)
        if backbone:
            self.backbone.extend(backbone)
        for node in cluster.nodes:
            self.attach_kernel(node)

    # -- wiring ----------------------------------------------------------

    def attach_kernel(self, node: Node) -> Kernel:
        """Create and register a kernel for *node*."""
        if node.name in self.kernels:
            # Host names key kernels and pseudo-thread identities; a
            # collision would silently merge traces across hosts.
            raise ValueError(
                f"duplicate node name {node.name!r} on this fabric; "
                "give each cluster's nodes distinct names "
                "(ClusterBuilder(node_prefix=...))")
        kernel = Kernel(self.sim, node.name, network=self)
        node.kernel = kernel
        self.kernels[node.name] = kernel
        return kernel

    def kernel_for_node(self, name: str) -> Kernel:
        """The kernel attached to the named node."""
        return self.kernels[name]

    def alloc_socket_id(self) -> int:
        """Allocate a fabric-unique socket id."""
        socket_id = self._next_socket_id
        self._next_socket_id += 1
        return socket_id

    def register_listener(self, ip: str, port: int, kernel: Kernel) -> None:
        """Register a listening (ip, port) endpoint."""
        key = (ip, port)
        if key in self._listeners:
            raise ValueError(f"listener already registered on {key}")
        self._listeners[key] = kernel

    def unregister_listener(self, ip: str, port: int) -> None:
        """Remove a listener registration."""
        self._listeners.pop((ip, port), None)

    # -- captures ----------------------------------------------------------

    def enable_capture(self, device: Device,
                       callback: Callable[[PacketRecord], None]) -> None:
        """Attach a cBPF/AF_PACKET-style capture callback to a device."""
        device.capture_callbacks.append(callback)

    # -- routing ----------------------------------------------------------

    def _endpoint_chain(self, ip: str) -> tuple[Optional[Cluster],
                                                Optional[Node],
                                                list[Device]]:
        """(cluster, node, devices from endpoint through the node NIC)."""
        for cluster in self.clusters:
            pod = cluster.find_pod(ip)
            if pod is not None:
                return cluster, pod.node, [pod.veth, pod.node.vswitch]
            node = cluster.find_node(ip)
            if node is not None:
                return cluster, node, [node.vswitch]
        return None, None, []

    @staticmethod
    def _egress_leg(cluster: Cluster, node: Node,
                    chain: list[Device]) -> list[Device]:
        """Endpoint → its cluster's ToR (client-to-fabric order)."""
        leg = list(chain)
        leg.append(node.nic)
        if node.machine is not None:
            leg.append(node.machine.nic)
        leg.extend(cluster.middleboxes)
        leg.append(cluster.tor)
        return leg

    def route(self, src_ip: str, dst_ip: str) -> list[Device]:
        """Device path from *src_ip* to *dst_ip* (client→server order)."""
        if src_ip == dst_ip:
            return []  # loopback
        src_cluster, src_node, src_chain = self._endpoint_chain(src_ip)
        dst_cluster, dst_node, dst_chain = self._endpoint_chain(dst_ip)
        if src_node is None or dst_node is None:
            raise ValueError(
                f"no route: unknown endpoint {src_ip} or {dst_ip}")
        if src_node is dst_node:
            # Intra-node: through the shared vswitch once.
            path = list(src_chain)
            for device in reversed(dst_chain):
                if device not in path:
                    path.append(device)
            return path
        if src_cluster is dst_cluster:
            path = list(src_chain)
            path.append(src_node.nic)
            if src_node.machine is not None:
                path.append(src_node.machine.nic)
            path.extend(src_cluster.middleboxes)
            path.append(src_cluster.tor)
            if dst_node.machine is not None:
                path.append(dst_node.machine.nic)
            path.append(dst_node.nic)
            path.extend(reversed(dst_chain))
            return path
        # Cross-cluster: out through the source fabric, across the
        # backbone, in through the destination fabric.
        path = self._egress_leg(src_cluster, src_node, src_chain)
        path.extend(self.backbone)
        path.extend(reversed(self._egress_leg(dst_cluster, dst_node,
                                              dst_chain)))
        return path

    def path_latency(self, path: list[Device]) -> float:
        """Sum of per-device one-way latencies on *path*."""
        return sum(device.latency for device in path)

    # -- connection establishment -------------------------------------------

    def establish(self, client_socket: Socket) -> Generator:
        """Simulated handshake; wires a :class:`Flow` on success.

        ARP resolution happens on the first connection toward a new next
        hop; a faulty NIC's :class:`ArpStormFault` inflates both the ARP
        count and the setup latency (§4.1.2).
        """
        five_tuple = client_socket.five_tuple
        path = self.route(five_tuple.src_ip, five_tuple.dst_ip)
        one_way = self.path_latency(path)
        extra_latency = 0.0
        refused = False
        arp_requests = 0
        for device in path:
            arp_key = (device.name, five_tuple.dst_ip)
            if arp_key not in self._arp_cache:
                self._arp_cache.add(arp_key)
                device.arp_requests += 1
                device.arp_peers.add(five_tuple.dst_ip)
                arp_requests += 1
            for fault in device.faults:
                decision = fault.on_connect(self.sim.rng)
                if decision is None:
                    continue
                extra_latency += decision.extra_latency
                device.arp_requests += decision.extra_arp_requests
                arp_requests += decision.extra_arp_requests
                if decision.refuse:
                    refused = True
                    device.connects_refused += 1
        handshake_rtt = 2 * one_way + extra_latency
        yield handshake_rtt
        if refused:
            raise ConnectionRefusedError(str(five_tuple))
        listener_kernel = self._listeners.get(
            (five_tuple.dst_ip, five_tuple.dst_port))
        if listener_kernel is None:
            raise ConnectionRefusedError(str(five_tuple))
        server_socket = listener_kernel.create_server_socket(five_tuple)
        if server_socket is None:
            raise ConnectionRefusedError(str(five_tuple))
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        metrics = self.metrics.create(five_tuple, flow_id, self.sim.now)
        metrics.connect_rtt = handshake_rtt
        metrics.arp_requests = arp_requests
        flow = Flow(self, flow_id, client_socket, server_socket, path,
                    metrics)
        client_socket.flow = flow
        server_socket.flow = flow
        self.flows.append(flow)
        return flow

    def metrics_for(self, five_tuple: FiveTuple) -> Optional[FlowMetrics]:
        """Flow metrics for *five_tuple*, or None."""
        return self.metrics.lookup(five_tuple)


class Flow:
    """One established TCP connection and its path through the fabric."""

    def __init__(self, network: Network, flow_id: int, client: Socket,
                 server: Socket, path: list[Device],
                 metrics: FlowMetrics):
        self.network = network
        self.sim = network.sim
        self.flow_id = flow_id
        self.client = client
        self.server = server
        self.path = path
        self.metrics = metrics
        self.reset_happened = False
        self._segment_name = f"flow{flow_id}-seg"

    def _peer(self, sock: Socket) -> Socket:
        return self.server if sock is self.client else self.client

    def send(self, from_sock: Socket, seq: int, data: bytes) -> None:
        """Fire-and-forget segment transmission (the syscall returns once
        the data is in the send buffer, as with real TCP)."""
        self.sim.spawn(self._transmit(from_sock, seq, data),
                       self._segment_name)

    def _transmit(self, from_sock: Socket, seq: int,
                  data: bytes) -> Generator:
        if from_sock is self.client:
            direction, peer, devices = "c2s", self.server, self.path
        else:
            direction, peer, devices = "s2c", self.client, self.path[::-1]
        metrics = self.metrics
        sim = self.sim
        rto = INITIAL_RTO
        attempts = 0
        while True:
            sent_at = sim.now
            cumulative = 0.0
            dropped = False
            for index, device in enumerate(devices):
                cumulative += device.latency
                if device.faults:
                    decision = self._evaluate_faults(device)
                    cumulative += decision.extra_latency
                    if decision.reset:
                        device.resets_generated += 1
                        yield cumulative
                        self._reset_both()
                        return
                    if decision.drop:
                        device.segments_dropped += 1
                        metrics.retransmissions += 1
                        dropped = True
                        break
                device.segments_forwarded += 1
                if device.capture_callbacks:
                    self._capture(device, index, direction, seq, data,
                                  sent_at + cumulative)
            if dropped:
                attempts += 1
                if attempts > MAX_RETRANSMISSIONS:
                    metrics.lost_segments += 1
                    return
                yield rto
                rto *= 2
                continue
            yield cumulative
            if self.reset_happened:
                return
            metrics.record_segment(direction, len(data), cumulative)
            peer.deliver(seq, data)
            return

    def _evaluate_faults(self, device: Device) -> SegmentDecision:
        """Combined decision of the faults armed on *device* (only called
        when there are any: a fault-free hop allocates nothing)."""
        combined = SegmentDecision()
        rng = self.sim.rng
        for fault in device.faults:
            decision = fault.on_segment(rng)
            if decision is None:
                continue
            combined.drop = combined.drop or decision.drop
            combined.reset = combined.reset or decision.reset
            combined.extra_latency += decision.extra_latency
        return combined

    def _capture(self, device: Device, path_index: int, direction: str,
                 seq: int, data: bytes, timestamp: float) -> None:
        # Path index is always expressed in c2s order so that the trace
        # assembler can order network spans along the request path.
        c2s_index = (path_index if direction == "c2s"
                     else len(self.path) - 1 - path_index)
        record = PacketRecord(
            device_name=device.name,
            device_kind=device.kind.value,
            device_tags=dict(device.tags),
            five_tuple=self.metrics.five_tuple,
            direction=direction,
            tcp_seq=seq,
            byte_len=len(data),
            payload=data[:4096],
            timestamp=timestamp,
            flow_id=self.flow_id,
            path_index=c2s_index,
        )
        for callback in device.capture_callbacks:
            callback(record)

    def reset(self) -> None:
        """Reset the connection from the application side (RST)."""
        self._reset_both()

    def _reset_both(self) -> None:
        if self.reset_happened:
            return
        self.reset_happened = True
        self.metrics.resets += 1
        self.client.deliver_reset()
        self.server.deliver_reset()

    def endpoint_closed(self, sock: Socket) -> None:
        """One side closed: deliver EOF to the peer after the path delay."""
        peer = self._peer(sock)
        if peer.state is not SocketState.ESTABLISHED:
            self.metrics.closed = True
            return

        def _deliver_eof():
            yield self.network.path_latency(self.path)
            peer.deliver_eof()

        self.sim.spawn(_deliver_eof(), name=f"flow{self.flow_id}-fin")
