"""Continuous pipeline: push-path assembly streaming OTLP to a sink.

The pull path answers "what is this span's trace?" when a user asks;
this example runs the push path instead: spans ingest into the server,
the union-find's component-changed events drive a continuous assembler,
finished traces stream out as canonical OTLP/JSON the moment their
lifecycle completes (root-complete or idle), a latency-budget watchdog
alerts on slow spans at *arrival*, and the pipeline's own self-metrics
export through the matching OTLP ``resourceMetrics`` shape.

Run:  python examples/otlp_stream.py
"""

import json

from repro.analysis.watchdog import AnomalyWatchdog
from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import HttpService, Response
from repro.core.export import OtlpStreamExporter, decode_otlp_json
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


def main() -> None:
    sim = Simulator(seed=42)
    builder = ClusterBuilder(node_count=2)
    client_pod = builder.add_pod(0, "client-pod")
    api_pod = builder.add_pod(1, "api-pod", labels={"app": "api"})
    cluster = builder.build()
    Network(sim, cluster)

    # The exporter stands in for an OTLP/HTTP endpoint; it keeps every
    # request body so the payloads can be checked below.
    exporter = OtlpStreamExporter()
    server = DeepFlowServer()
    server.enable_streaming(exporter=exporter)
    # The continuous assembler sweeps on a sim heartbeat, so traces
    # finish while traffic is still flowing, not only at shutdown.
    server.streaming.run(sim)

    # Latency budgets alert the moment a violating span arrives.
    watchdog = AnomalyWatchdog(server)
    watchdog.watch_streaming(server.streaming, {"api": 0.002})

    agents = []
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agent.start_polling(interval=0.02)
        agents.append(agent)

    api = HttpService("api", api_pod.node, 8080, pod=api_pod,
                      service_time=0.001)

    @api.route("/api/orders")
    def orders(worker, request):
        yield from worker.work(0.0005)
        return Response(200, body=b'{"orders": []}')

    @api.route("/api/slow")
    def slow(worker, request):
        yield from worker.work(0.004)   # blows the 2 ms budget
        return Response(200, body=b"late")

    api.start()
    for path, rate in (("/api/orders", 40), ("/api/slow", 5)):
        generator = LoadGenerator(client_pod.node, api_pod.ip, 8080,
                                  rate=rate, duration=0.5, path=path,
                                  connections=2, pod=client_pod,
                                  name="client")
        sim.run_process(generator.run())
    sim.run(until=sim.now + 0.5)
    for agent in agents:
        agent.flush()
    server.streaming.drain(sim.now)

    records = server.streaming.finished
    print(f"finished traces: {len(records)} "
          f"({sum(len(r.trace) for r in records)} spans)")
    reasons = {}
    for record in records:
        reasons[record.reason] = reasons.get(record.reason, 0) + 1
    print(f"finish reasons: {reasons}")
    for payload in exporter.trace_payloads:
        decode_otlp_json(payload)            # raises on a schema error
    print(f"payloads passing the OTLP schema check: "
          f"{len(exporter.trace_payloads)} of {exporter.exported_traces}")

    print("\n--- one exported trace (OTLP/JSON excerpt) ---")
    payload = exporter.trace_payloads[0]     # compact OTLP/JSON text
    resource = json.loads(payload)["resourceSpans"][0]
    span = resource["scopeSpans"][0]["spans"][0]
    print(json.dumps({"resource": resource["resource"],
                      "first_span": span}, indent=2, sort_keys=True))

    print("\n--- latency-budget alerts (fired at arrival) ---")
    for alert in watchdog.alerts[:3]:
        print(" ", alert.describe())
    muted = sum(watchdog.suppressed.values())
    print(f"  (+{muted} suppressed by the per-service cooldown)")

    print("\n--- pipeline self-metrics ---")
    stats = server.pipeline_stats()
    for name, value in sorted(stats["metrics"]["counters"].items()):
        print(f"  {name:28s} {value}")
    lag = stats["metrics"]["histograms"]["stream.finish_lag_s"]
    print(f"  ingest-to-finished p99      {lag['p99'] * 1e3:.0f} ms "
          f"(sim time)")
    metrics_payload = server.pipeline_metrics_otlp(sim.now)
    print(f"  OTLP resourceMetrics entries: "
          f"{len(metrics_payload['resourceMetrics'][0]['scopeMetrics'][0]['metrics'])}")


if __name__ == "__main__":
    main()
