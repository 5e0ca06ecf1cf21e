"""Tests for the workload applications and the load generator."""

import pytest

from repro.apps import bookinfo, springboot
from repro.apps.loadgen import LoadGenerator
from repro.apps.proxy import NginxProxy
from repro.apps.runtime import (HttpService, Response, WorkerContext,
                                close_quietly)
from repro.apps.services import DnsService, MysqlService, RedisService
from repro.core.span import SpanSide
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import dns as dns_proto
from repro.protocols import mysql as mysql_proto
from repro.protocols import redis as redis_proto
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


def simple_world(node_count=2, seed=47):
    sim = Simulator(seed=seed)
    builder = ClusterBuilder(node_count=node_count)
    return sim, builder


def run_client(sim, network, pod, requests):
    """Run an ad-hoc client process; *requests* is a generator factory
    taking (kernel, thread) and returning the client body."""
    kernel = network.kernel_for_node(pod.node.name)
    process = kernel.create_process("client", pod.ip)
    thread = kernel.create_thread(process)
    return sim.run_process(sim.spawn(requests(kernel, thread)))


class TestBackendServices:
    def test_dns_resolves_and_nxdomain(self):
        sim, builder = simple_world()
        client_pod = builder.add_pod(0, "c")
        dns_pod = builder.add_pod(1, "dns")
        network = Network(sim, builder.build())
        service = DnsService("coredns", dns_pod.node, 53, pod=dns_pod)
        service.add_record("svc.local", "10.9.9.9")
        service.start()

        def client(kernel, thread):
            fd = yield from kernel.connect(thread, dns_pod.ip, 53)
            yield from kernel.sendto(thread, fd,
                                     dns_proto.encode_query(1, "svc.local"))
            good = yield from kernel.recvfrom(thread, fd)
            yield from kernel.sendto(thread, fd,
                                     dns_proto.encode_query(2, "nope"))
            bad = yield from kernel.recvfrom(thread, fd)
            return good, bad

        good, bad = run_client(sim, network, client_pod, client)
        assert dns_proto.decode_address(good) == "10.9.9.9"
        parsed = dns_proto.DnsSpec().parse(bad)
        assert parsed.status_code == dns_proto.RCODE_NXDOMAIN

    def test_redis_get_set_del(self):
        sim, builder = simple_world()
        client_pod = builder.add_pod(0, "c")
        redis_pod = builder.add_pod(1, "r")
        network = Network(sim, builder.build())
        service = RedisService("redis", redis_pod.node, 6379,
                               pod=redis_pod)
        service.start()

        def client(kernel, thread):
            fd = yield from kernel.connect(thread, redis_pod.ip, 6379)
            yield from kernel.write(
                thread, fd, redis_proto.encode_request("SET", "k", "v1"))
            yield from kernel.read(thread, fd)
            yield from kernel.write(
                thread, fd, redis_proto.encode_request("GET", "k"))
            got = yield from kernel.read(thread, fd)
            yield from kernel.write(
                thread, fd, redis_proto.encode_request("DEL", "k"))
            deleted = yield from kernel.read(thread, fd)
            yield from kernel.write(
                thread, fd, redis_proto.encode_request("GET", "k"))
            missing = yield from kernel.read(thread, fd)
            return got, deleted, missing

        got, deleted, missing = run_client(sim, network, client_pod,
                                           client)
        assert redis_proto.decode_response(got) == "v1"
        assert redis_proto.decode_response(deleted) == "1"
        assert missing == b"$-1\r\n"
        assert service.hits == 1 and service.misses == 1

    def test_mysql_select_and_missing_table(self):
        sim, builder = simple_world()
        client_pod = builder.add_pod(0, "c")
        db_pod = builder.add_pod(1, "db")
        network = Network(sim, builder.build())
        service = MysqlService("mysql", db_pod.node, 3306, pod=db_pod)
        service.add_table("users", rows=5)
        service.fail_table = "ghosts"
        service.start()

        def client(kernel, thread):
            fd = yield from kernel.connect(thread, db_pod.ip, 3306)
            yield from kernel.write(
                thread, fd,
                mysql_proto.encode_query("SELECT * FROM users"))
            ok = yield from kernel.read(thread, fd)
            yield from kernel.write(
                thread, fd,
                mysql_proto.encode_query("SELECT * FROM ghosts"))
            err = yield from kernel.read(thread, fd)
            return ok, err

        ok, err = run_client(sim, network, client_pod, client)
        spec = mysql_proto.MysqlSpec()
        assert spec.parse(ok).status == "ok"
        parsed_err = spec.parse(err)
        assert parsed_err.status == "error"
        assert parsed_err.status_code == 1146
        assert service.queries_served == 2


class TestProxy:
    def test_round_robin_over_upstreams(self):
        sim, builder = simple_world(node_count=3)
        lg_pod = builder.add_pod(0, "lg")
        proxy_pod = builder.add_pod(0, "px")
        a_pod = builder.add_pod(1, "a")
        b_pod = builder.add_pod(2, "b")
        network = Network(sim, builder.build())
        hits = {"a": 0, "b": 0}
        for key, pod in (("a", a_pod), ("b", b_pod)):
            service = HttpService(key, pod.node, 9000, pod=pod)

            def handler(worker, request, _key=key):
                hits[_key] += 1
                yield from worker.work(0.0001)
                return Response(200)

            service.route("/")(handler)
            service.start()
        proxy = NginxProxy("nginx", proxy_pod.node, 8080, pod=proxy_pod)
        proxy.add_route("/", [(a_pod.ip, 9000), (b_pod.ip, 9000)])
        proxy.start()
        generator = LoadGenerator(lg_pod.node, proxy_pod.ip, 8080,
                                  rate=20, duration=0.5, connections=1,
                                  pod=lg_pod)
        report = sim.run_process(generator.run())
        assert report.errors == 0
        assert hits["a"] == pytest.approx(hits["b"], abs=1)
        assert hits["a"] + hits["b"] == report.completed

    def test_proxy_injects_x_request_id(self):
        sim, builder = simple_world()
        lg_pod = builder.add_pod(0, "lg")
        proxy_pod = builder.add_pod(0, "px")
        up_pod = builder.add_pod(1, "up")
        network = Network(sim, builder.build())
        seen = []
        service = HttpService("up", up_pod.node, 9000, pod=up_pod)

        @service.route("/")
        def handler(worker, request):
            seen.append(request.headers.get("x-request-id"))
            yield from worker.work(0.0001)
            return Response(200)

        service.start()
        proxy = NginxProxy("nginx", proxy_pod.node, 8080, pod=proxy_pod)
        proxy.add_route("/", [(up_pod.ip, 9000)])
        proxy.start()
        generator = LoadGenerator(lg_pod.node, proxy_pod.ip, 8080,
                                  rate=10, duration=0.3, connections=1,
                                  pod=lg_pod)
        report = sim.run_process(generator.run())
        assert report.completed > 0
        assert all(value for value in seen)
        assert len(set(seen)) == len(seen)  # unique per request

    def test_proxy_502_when_no_upstream(self):
        sim, builder = simple_world()
        lg_pod = builder.add_pod(0, "lg")
        proxy_pod = builder.add_pod(1, "px")
        network = Network(sim, builder.build())
        proxy = NginxProxy("nginx", proxy_pod.node, 8080, pod=proxy_pod)
        proxy.start()
        generator = LoadGenerator(lg_pod.node, proxy_pod.ip, 8080,
                                  rate=5, duration=0.2, connections=1,
                                  pod=lg_pod)
        report = sim.run_process(generator.run())
        assert report.completed == 0
        assert report.errors == report.sent


class TestLoadGenerator:
    def _echo_target(self, service_time=0.0005):
        sim, builder = simple_world()
        lg_pod = builder.add_pod(0, "lg")
        svc_pod = builder.add_pod(1, "svc")
        network = Network(sim, builder.build())
        service = HttpService("svc", svc_pod.node, 9000, pod=svc_pod,
                              service_time=service_time)

        @service.route("/")
        def handler(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        service.start()
        return sim, lg_pod, svc_pod

    def test_constant_rate_is_respected(self):
        sim, lg_pod, svc_pod = self._echo_target()
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=50,
                                  duration=1.0, connections=4, pod=lg_pod)
        report = sim.run_process(generator.run())
        assert report.sent == 50
        assert report.throughput == pytest.approx(50, rel=0.1)
        assert report.close_errors == 0  # every fd closed exactly once

    def test_coordinated_omission_correction(self):
        """A stalling server inflates recorded latency, not just spacing."""
        sim, lg_pod, svc_pod = self._echo_target(service_time=0.1)
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=40,
                                  duration=0.5, connections=1, pod=lg_pod)
        report = sim.run_process(generator.run())
        # Offered 40/s on one connection of a 10/s server: queueing delay
        # must appear in the tail.
        assert report.p90 > 0.2

    def test_percentiles_ordered(self):
        sim, lg_pod, svc_pod = self._echo_target()
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=30,
                                  duration=0.5, connections=2, pod=lg_pod)
        report = sim.run_process(generator.run())
        assert report.p50 <= report.p90 <= report.p99

    def test_invalid_parameters_rejected(self):
        sim, lg_pod, svc_pod = self._echo_target()
        with pytest.raises(ValueError):
            LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=0,
                          duration=1.0)


class TestCloseQuietly:
    def test_only_kernel_errors_are_swallowed_and_they_are_counted(self):
        sim, builder = simple_world()
        pod = builder.add_pod(0, "svc")
        Network(sim, builder.build())
        service = HttpService("svc", pod.node, 9000, pod=pod)
        service.start()
        thread = service.kernel.create_thread(service.process)
        assert close_quietly(service.kernel, thread, 99) == 1  # bad fd
        worker = WorkerContext(service, thread, None)
        worker._pool[("10.9.9.9", 80)] = 98  # a pooled fd already gone
        worker.close_pool()
        assert worker.close_errors == 1

        class BrokenKernel:
            def close(self, thread, fd):
                raise RuntimeError("a bug, not a torn-down fd")

        with pytest.raises(RuntimeError):
            close_quietly(BrokenKernel(), thread, 3)


class TestSpringBootDemo:
    def test_end_to_end_requests_succeed(self):
        demo = springboot.build()
        generator = LoadGenerator(
            demo.pods["loadgen"].node, demo.entry_ip, demo.entry_port,
            rate=20, duration=0.5, connections=4,
            pod=demo.pods["loadgen"], path="/api/orders")
        report = demo.sim.run_process(generator.run())
        assert report.errors == 0
        assert report.completed == report.sent
        assert demo.components["redis"].hits >= 1
        assert demo.components["mysql"].queries_served >= 1

    def test_deepflow_traces_cover_all_tiers(self):
        sim = Simulator(seed=3)
        demo = springboot.build(sim)
        server = DeepFlowServer()
        agents = []
        for node in demo.cluster.nodes:
            agent = server.new_agent(node.kernel, node=node)
            agent.deploy()
            agents.append(agent)
        generator = LoadGenerator(
            demo.pods["loadgen"].node, demo.entry_ip, demo.entry_port,
            rate=10, duration=0.4, connections=2,
            pod=demo.pods["loadgen"], path="/api/orders", name="loadgen")
        report = sim.run_process(generator.run())
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush()
        assert report.errors == 0
        trace = server.trace(server.slowest_span().span_id)
        # loadgen->gw, gw->order, order->redis, order->user, order->mysql:
        # five sessions observed from both ends.
        assert len(trace) == 10
        protocols = {span.protocol for span in trace}
        assert protocols == {"http", "redis", "mysql"}
        assert len(trace.roots()) == 1


class TestBookinfo:
    def test_end_to_end_requests_succeed(self):
        app = bookinfo.build()
        generator = LoadGenerator(
            app.pods["loadgen"].node, app.entry_ip, app.entry_port,
            rate=10, duration=0.5, connections=2,
            pod=app.pods["loadgen"], path="/productpage")
        report = app.sim.run_process(generator.run())
        assert report.errors == 0
        assert report.completed == report.sent

    def test_deepflow_trace_includes_sidecars(self):
        sim = Simulator(seed=4)
        app = bookinfo.build(sim)
        server = DeepFlowServer()
        agents = []
        for node in app.cluster.nodes:
            agent = server.new_agent(node.kernel, node=node)
            agent.deploy()
            agents.append(agent)
        generator = LoadGenerator(
            app.pods["loadgen"].node, app.entry_ip, app.entry_port,
            rate=8, duration=0.4, connections=2,
            pod=app.pods["loadgen"], path="/productpage", name="loadgen")
        report = sim.run_process(generator.run())
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush()
        assert report.errors == 0
        trace = server.trace(server.slowest_span().span_id)
        names = {span.process_name for span in trace}
        assert {"istio-ingress", "productpage-sidecar", "productpage",
                "details-sidecar", "details", "reviews-sidecar",
                "reviews", "ratings-sidecar", "ratings"} <= names
        # 9 sessions observed from both ends = 18 eBPF spans.
        assert len(trace) == 18
        assert len(trace.roots()) == 1
