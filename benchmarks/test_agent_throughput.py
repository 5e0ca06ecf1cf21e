"""Agent pipeline cost (Goal 5: high performance).

The calibration notes for this reproduction flag the high-throughput
agent as the hard part of a Python build, so pytest-benchmark times the
user-space pipeline directly — enter/exit merge, protocol inference,
session aggregation, systrace assignment, span construction — on
synthetic records.  The timings are reported, not asserted: the gated
throughput figure is ``agent_replay`` in ``benchmarks/e2e``, which
replays a recorded ring tape.  What is asserted here is deterministic.
"""

from repro.agent.agent import DeepFlowAgent
from repro.kernel.kernel import Kernel
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.protocols import http1
from repro.sim.engine import Simulator

EVENTS = 20_000


def _synthetic_records(count):
    """Alternating request/response records across 8 fake connections."""
    request = http1.encode_request("GET", "/api/items")
    response = http1.encode_response(200, body=b"[]")
    records = []
    t = 0.0
    for index in range(count // 2):
        socket_id = index % 8
        ft = FiveTuple("10.0.0.1", 40000 + socket_id, "10.0.0.2", 80)
        t += 1e-4
        records.append(SyscallRecord(
            pid=1, tid=100 + socket_id, coroutine_id=None,
            process_name="svc", socket_id=socket_id, five_tuple=ft,
            tcp_seq=index * 100 + 1, enter_time=t, exit_time=t + 1e-5,
            direction=Direction.INGRESS, abi="read",
            byte_len=len(request), payload=request, ret=len(request),
            host_name="node-1"))
        t += 1e-4
        records.append(SyscallRecord(
            pid=1, tid=100 + socket_id, coroutine_id=None,
            process_name="svc", socket_id=socket_id, five_tuple=ft,
            tcp_seq=index * 100 + 1, enter_time=t, exit_time=t + 1e-5,
            direction=Direction.EGRESS, abi="write",
            byte_len=len(response), payload=response, ret=len(response),
            host_name="node-1"))
    return records


def _fresh_agent():
    sim = Simulator(seed=1)
    kernel = Kernel(sim, "node-1")
    return DeepFlowAgent(kernel, agent_index=1)


def test_agent_pipeline_pairs_every_request(benchmark):
    """One span per request/response pair, none lost in the pipeline."""
    records = _synthetic_records(EVENTS)

    def run_pipeline():
        agent = _fresh_agent()
        for record in records:
            agent._process_event(record)
        return agent.stats["spans_emitted"]

    spans = benchmark.pedantic(run_pipeline, rounds=3, iterations=1)
    assert spans == EVENTS // 2


def test_agent_per_event_cost(benchmark):
    """pytest-benchmark on the steady-state per-event path."""
    records = _synthetic_records(EVENTS)
    agent = _fresh_agent()
    iterator = iter(records * 50)

    def one_event():
        agent._process_event(next(iterator))

    benchmark(one_event)


def test_protocol_inference_cost(benchmark):
    """One-time inference is amortized: steady-state parse is a sticky
    dict hit plus the protocol parser."""
    from repro.protocols.inference import ProtocolInferenceEngine
    engine = ProtocolInferenceEngine()
    payload = http1.encode_request("GET", "/api/items")
    engine.parse(1, payload)  # classification done once

    result = benchmark(lambda: engine.parse(1, payload))
    assert result.operation == "GET"
    assert engine.inference_attempts == 1
