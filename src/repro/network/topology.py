"""Data-center topology: machines, nodes, pods, and network devices.

The hierarchy mirrors Appendix A's end-to-end path:

    client process ⇄ pod veth ⇄ node vswitch ⇄ node NIC ⇄ physical NIC ⇄
    ToR switch ⇄ ... ⇄ server side mirror image

Every pod, node, and device carries *resource tags* — Kubernetes tags
(node/pod/service), self-defined labels, cloud tags (region/AZ/VPC) — which
are what tag-based correlation (§3.4) injects into spans.
"""

from __future__ import annotations

import enum
from typing import Optional


class DeviceKind(enum.Enum):
    """Network infrastructure device classes (Figure 2(b) categories)."""

    POD_VETH = "pod-veth"
    VSWITCH = "vswitch"
    NODE_NIC = "node-nic"
    PHYSICAL_NIC = "physical-nic"
    TOR_SWITCH = "tor-switch"
    L4_GATEWAY = "l4-gateway"
    FIREWALL = "firewall"


#: Default one-way traversal latency per device kind, seconds.
DEFAULT_DEVICE_LATENCY = {
    DeviceKind.POD_VETH: 5e-6,
    DeviceKind.VSWITCH: 20e-6,
    DeviceKind.NODE_NIC: 10e-6,
    DeviceKind.PHYSICAL_NIC: 10e-6,
    DeviceKind.TOR_SWITCH: 30e-6,
    DeviceKind.L4_GATEWAY: 50e-6,
    DeviceKind.FIREWALL: 15e-6,
}


class Device:
    """A forwarding element on the path between two endpoints.

    Faults (``repro.network.faults``) attach here; capture callbacks
    (the agent's cBPF/AF_PACKET integration) subscribe here.
    """

    def __init__(self, name: str, kind: DeviceKind,
                 latency: Optional[float] = None,
                 tags: Optional[dict[str, str]] = None):
        self.name = name
        self.kind = kind
        self.latency = (latency if latency is not None
                        else DEFAULT_DEVICE_LATENCY[kind])
        self.tags = dict(tags or {})
        self.tags.setdefault("device", name)
        self.faults: list = []
        self.capture_callbacks: list = []
        # Per-device health counters, queryable as network metrics.
        self.segments_forwarded = 0
        self.segments_dropped = 0
        self.resets_generated = 0
        self.arp_requests = 0
        self.arp_peers: set[str] = set()
        self.connects_refused = 0

    def add_fault(self, fault) -> None:
        """Attach *fault* to this device."""
        self.faults.append(fault)

    def clear_faults(self) -> None:
        """Remove every fault from this device."""
        self.faults.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Device {self.name} ({self.kind.value})>"


class Pod:
    """A Kubernetes pod: an IP, a node, labels, and a veth device."""

    def __init__(self, name: str, ip: str, node: "Node",
                 labels: Optional[dict[str, str]] = None):
        self.name = name
        self.ip = ip
        self.node = node
        self.labels = dict(labels or {})
        tags = {
            "pod": name,
            "node": node.name,
            "namespace": self.labels.get("namespace", "default"),
        }
        tags.update(node.cloud_tags())
        self.veth = Device(f"{name}/veth", DeviceKind.POD_VETH, tags=tags)

    def tags(self) -> dict[str, str]:
        """All resource tags for this pod (K8s + cloud + custom labels)."""
        tags = {
            "pod": self.name,
            "node": self.node.name,
            "ip": self.ip,
        }
        tags.update(self.node.cloud_tags())
        tags.update(self.labels)
        return tags

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Pod {self.name} ip={self.ip} on {self.node.name}>"


class Node:
    """A container node (VM or bare-metal) running one kernel.

    Owns a vswitch and a NIC; pods on the node hang off the vswitch.
    """

    def __init__(self, name: str, ip: str,
                 machine: Optional["PhysicalMachine"] = None,
                 region: str = "region-1", zone: str = "az-1",
                 vpc: str = "vpc-1"):
        self.name = name
        self.ip = ip
        self.machine = machine
        self.region = region
        self.zone = zone
        self.vpc = vpc
        self.pods: list[Pod] = []
        base_tags = {"node": name, **self.cloud_tags()}
        self.vswitch = Device(f"{name}/vswitch", DeviceKind.VSWITCH,
                              tags=base_tags)
        self.nic = Device(f"{name}/nic", DeviceKind.NODE_NIC, tags=base_tags)
        self.kernel = None  # attached by the Network

    def cloud_tags(self) -> dict[str, str]:
        """Cloud resource tags (region/AZ/VPC)."""
        return {"region": self.region, "az": self.zone, "vpc": self.vpc}

    def add_pod(self, name: str, ip: str,
                labels: Optional[dict[str, str]] = None) -> Pod:
        """Create a pod with an auto-assigned IP on a node."""
        pod = Pod(name, ip, self, labels)
        self.pods.append(pod)
        return pod

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} ip={self.ip}>"


class PhysicalMachine:
    """A physical server hosting one or more nodes (VMs)."""

    def __init__(self, name: str, region: str = "region-1",
                 zone: str = "az-1"):
        self.name = name
        self.region = region
        self.zone = zone
        self.nodes: list[Node] = []
        self.nic = Device(f"{name}/phys-nic", DeviceKind.PHYSICAL_NIC,
                          tags={"machine": name, "region": region,
                                "az": zone})

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PhysicalMachine {self.name}>"


class Cluster:
    """A collection of machines, nodes, pods, and shared fabric devices."""

    def __init__(self, name: str = "cluster-1"):
        self.name = name
        self.machines: list[PhysicalMachine] = []
        self.nodes: list[Node] = []
        self.tor = Device(f"{name}/tor", DeviceKind.TOR_SWITCH,
                          tags={"cluster": name})
        self.middleboxes: list[Device] = []

    def add_machine(self, name: str, **kwargs) -> PhysicalMachine:
        """Add a physical machine to the cluster."""
        machine = PhysicalMachine(name, **kwargs)
        self.machines.append(machine)
        return machine

    def add_node(self, name: str, ip: str,
                 machine: Optional[PhysicalMachine] = None,
                 **kwargs) -> Node:
        """Add a node (VM/bare-metal), optionally on *machine*."""
        node = Node(name, ip, machine=machine, **kwargs)
        if machine is not None:
            machine.nodes.append(node)
        self.nodes.append(node)
        return node

    def add_middlebox(self, device: Device) -> None:
        """Insert a shared L4 device (gateway/firewall) on inter-node paths."""
        self.middleboxes.append(device)

    def find_pod(self, ip: str) -> Optional[Pod]:
        """Pod owning *ip*, or None."""
        for node in self.nodes:
            for pod in node.pods:
                if pod.ip == ip:
                    return pod
        return None

    def find_node(self, ip: str) -> Optional[Node]:
        """Node owning *ip*, or None."""
        for node in self.nodes:
            if node.ip == ip:
                return node
        return None

    def all_devices(self) -> list[Device]:
        """Every forwarding device in the cluster."""
        devices: list[Device] = [self.tor]
        devices.extend(self.middleboxes)
        for machine in self.machines:
            devices.append(machine.nic)
        for node in self.nodes:
            devices.append(node.vswitch)
            devices.append(node.nic)
            for pod in node.pods:
                devices.append(pod.veth)
        return devices

    def device_by_name(self, name: str) -> Optional[Device]:
        """Find a device by name, or None."""
        for device in self.all_devices():
            if device.name == name:
                return device
        return None


class ClusterBuilder:
    """Convenience builder producing a standard three-node testbed cluster.

    Mirrors the paper's evaluation testbed (§5): three identical servers in
    one Kubernetes cluster.
    """

    def __init__(self, name: str = "cluster-1", node_count: int = 3,
                 with_physical_machines: bool = True,
                 node_prefix: str = "node", subnet: str = "10.0"):
        self.cluster = Cluster(name)
        self._subnet = subnet
        self._next_pod_octet: dict[str, int] = {}
        for index in range(node_count):
            machine = None
            if with_physical_machines:
                machine = self.cluster.add_machine(
                    f"pm-{index + 1}" if node_prefix == "node"
                    else f"{node_prefix}-pm-{index + 1}")
            node = self.cluster.add_node(
                f"{node_prefix}-{index + 1}",
                f"{subnet}.{index + 1}.1", machine=machine)
            self._next_pod_octet[node.name] = 2

    @property
    def nodes(self) -> list[Node]:
        """The cluster's nodes."""
        return self.cluster.nodes

    def add_pod(self, node_index: int, name: str,
                labels: Optional[dict[str, str]] = None) -> Pod:
        """Create a pod with an auto-assigned IP on a node."""
        node = self.cluster.nodes[node_index % len(self.cluster.nodes)]
        octet = self._next_pod_octet[node.name]
        self._next_pod_octet[node.name] = octet + 1
        node_id = self.cluster.nodes.index(node) + 1
        return node.add_pod(name, f"{self._subnet}.{node_id}.{octet}",
                            labels)

    def build(self) -> Cluster:
        """Return the built cluster."""
        return self.cluster
