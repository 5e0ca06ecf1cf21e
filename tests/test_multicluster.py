"""Multi-cluster deployments: tracing across a WAN backbone.

The paper: "DeepFlow currently supports rapid deployment in a single or
across multiple Kubernetes clusters via Helm."  Cross-cluster requests
traverse both fabrics plus the shared backbone; agents in both clusters
contribute spans to one trace, and backbone taps fill in the WAN hops.
"""

import pytest

from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import HttpService, Response
from repro.core.span import SpanKind
from repro.network.topology import ClusterBuilder, Device, DeviceKind
from repro.network.transport import Network
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


def build_two_clusters(shards=1, cluster_labels=False):
    sim = Simulator(seed=44)
    builder_a = ClusterBuilder(name="cluster-a", node_count=2)
    lg_pod = builder_a.add_pod(0, "loadgen-pod")
    fe_pod = builder_a.add_pod(1, "frontend-pod")
    cluster_a = builder_a.build()
    network = Network(sim, cluster_a)

    builder_b = ClusterBuilder(name="cluster-b", node_count=2,
                               node_prefix="b-node", subnet="10.4")
    be_pod = builder_b.add_pod(0, "backend-pod")
    cluster_b = builder_b.build()
    backbone = [Device("wan-gw-a", DeviceKind.L4_GATEWAY,
                       latency=200e-6, tags={"cluster": "cluster-a"}),
                Device("wan-gw-b", DeviceKind.L4_GATEWAY,
                       latency=200e-6, tags={"cluster": "cluster-b"})]
    network.add_cluster(cluster_b, backbone=backbone)

    server = DeepFlowServer(shards=shards)
    agents = []
    for cluster in network.clusters:
        for node in cluster.nodes:
            agent = server.new_agent(
                node.kernel, node=node,
                cluster=cluster.name if cluster_labels else None)
            agent.deploy()
            agents.append(agent)

    backend = HttpService("backend", be_pod.node, 9000, pod=be_pod,
                          service_time=0.002)

    @backend.route("/")
    def api(worker, request):
        yield from worker.work(0.0005)
        return Response(200, body=b"cross-cluster ok")

    backend.start()

    frontend = HttpService("frontend", fe_pod.node, 8000, pod=fe_pod,
                           service_time=0.001)

    @frontend.route("/")
    def home(worker, request):
        upstream = yield from worker.call_http(be_pod.ip, 9000, "GET",
                                               "/api")
        return Response(upstream.status_code, body=upstream.body)

    frontend.start()
    return (sim, network, server, agents, lg_pod, fe_pod, be_pod,
            backbone)


class TestCrossClusterRouting:
    def test_path_includes_both_fabrics_and_backbone(self):
        sim, network, server, agents, lg_pod, fe_pod, be_pod, backbone = \
            build_two_clusters()
        path = network.route(fe_pod.ip, be_pod.ip)
        names = [device.name for device in path]
        assert "cluster-a/tor" in names
        assert "cluster-b/tor" in names
        assert names.index("wan-gw-a") < names.index("wan-gw-b")
        assert (names.index("cluster-a/tor") < names.index("wan-gw-a")
                < names.index("cluster-b/tor"))

    def test_intra_cluster_path_avoids_backbone(self):
        sim, network, server, agents, lg_pod, fe_pod, be_pod, backbone = \
            build_two_clusters()
        path = network.route(lg_pod.ip, fe_pod.ip)
        assert all(device not in backbone for device in path)


class TestCrossClusterTracing:
    def run_traffic(self, shards=1, cluster_labels=False):
        (sim, network, server, agents, lg_pod, fe_pod, be_pod,
         backbone) = build_two_clusters(shards=shards,
                                        cluster_labels=cluster_labels)
        # Tap the backbone (WAN mirroring).
        for device in backbone:
            agents[0].enable_capture(device)
        generator = LoadGenerator(lg_pod.node, fe_pod.ip, 8000, rate=10,
                                  duration=0.4, connections=2,
                                  pod=lg_pod, name="loadgen")
        report = sim.run_process(generator.run())
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush()
        return report, server, backbone

    def test_requests_succeed_across_clusters(self):
        report, _server, _backbone = self.run_traffic()
        assert report.errors == 0
        assert report.completed == report.sent

    def test_single_trace_spans_both_clusters(self):
        report, server, backbone = self.run_traffic()
        trace = server.trace(server.slowest_span().span_id)
        hosts = {span.host for span in trace
                 if span.kind is SpanKind.SYSCALL}
        assert len(trace.roots()) == 1
        # frontend spans come from cluster-a nodes, backend from
        # cluster-b (both named node-1/node-2 in their own clusters but
        # processes differ).
        processes = {span.process_name for span in trace
                     if span.kind is SpanKind.SYSCALL}
        assert {"loadgen", "frontend", "backend"} <= processes

    def test_backbone_spans_join_the_trace(self):
        report, server, backbone = self.run_traffic()
        trace = server.trace(server.slowest_span().span_id)
        wan_spans = [span for span in trace
                     if span.kind is SpanKind.NETWORK]
        assert {span.device_name for span in wan_spans} == {
            "wan-gw-a", "wan-gw-b"}
        # Ordered along the path and fully parented.
        ordered = sorted(wan_spans, key=lambda span: span.path_index)
        assert ordered[1].parent_id == ordered[0].span_id


class TestShardedMulticluster:
    """The same two-cluster deployment against a sharded server: the
    sharded trace must equal the unsharded one span for span,
    and cluster labels must thread from agents into the query filters.
    """

    def test_sharded_trace_equals_unsharded(self):
        runner = TestCrossClusterTracing()
        _report, plain, _ = runner.run_traffic()
        _report, sharded, _ = runner.run_traffic(shards=4)
        # Deterministic sim: both runs produce identical span sets.
        start = plain.slowest_span().span_id
        assert sharded.slowest_span().span_id == start
        plain_ids = sorted(s.span_id for s in plain.trace(start))
        sharded_ids = sorted(s.span_id for s in sharded.trace(start))
        assert plain_ids == sharded_ids
        assert sharded.store.shard_stats()["boundary_links"] >= 0

    def test_sharded_trace_spans_both_clusters(self):
        runner = TestCrossClusterTracing()
        _report, server, _ = runner.run_traffic(shards=8,
                                                cluster_labels=True)
        trace = server.trace(server.slowest_span().span_id)
        assert len(trace.roots()) == 1
        processes = {span.process_name for span in trace
                     if span.kind is SpanKind.SYSCALL}
        assert {"loadgen", "frontend", "backend"} <= processes

    def test_cluster_labels_filter_span_list(self):
        runner = TestCrossClusterTracing()
        _report, server, _ = runner.run_traffic(shards=4,
                                                cluster_labels=True)
        everything = server.span_list(0.0, float("inf"))
        only_a = server.span_list(0.0, float("inf"), cluster="cluster-a")
        only_b = server.span_list(0.0, float("inf"), cluster="cluster-b")
        assert only_a and only_b
        assert all(s.tags.get("cluster") == "cluster-a" for s in only_a)
        assert all(s.tags.get("cluster") == "cluster-b" for s in only_b)
        assert len(only_a) + len(only_b) <= len(everything)
        # frontend runs in cluster-a, backend in cluster-b.
        assert "frontend" in {s.process_name for s in only_a}
        assert "backend" in {s.process_name for s in only_b}
        # Labels filter views; they never split the assembled trace.
        trace = server.trace(server.slowest_span().span_id)
        clusters = {s.tags.get("cluster") for s in trace} - {None}
        assert clusters == {"cluster-a", "cluster-b"}
