"""Unit tests for the overload self-protection subsystem.

Covers the kernel half (token buckets at firing time, perf-buffer
high-water/drop attribution) and the agent half (head sampler, the
degradation-tier state machine, the degraded span pipeline, and the
``agent.health()`` surface).
"""

import pytest

from repro.agent.agent import AgentConfig
from repro.agent.overload import (
    ADMIT,
    ADMIT_HEAD,
    DEGRADED_PROTOCOL,
    DROP,
    HeadSampler,
    OverloadController,
    Tier,
    sample_permille,
)
from repro.apps.runtime import HttpService, Response
from repro.kernel.ebpf import (
    BPFProgram,
    HookRegistry,
    PerfBuffer,
    TokenBucket,
)
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

FLOW = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 80)


# ---------------------------------------------------------------------------
# Token bucket + firing-time throttling


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [
            True, True, True, False]
        assert bucket.admitted == 3
        assert bucket.throttled == 1

    def test_refill_from_sim_time(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        # 0.1 s at 10 tokens/s refills exactly one token.
        assert bucket.allow(0.1)
        assert not bucket.allow(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.allow(0.0)
        # A long idle period must not bank more than the burst.
        assert [bucket.allow(10.0) for _ in range(3)] == [
            True, True, False]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestFiringTimeThrottle:
    def _registry(self):
        sim = Simulator(seed=1)
        registry = HookRegistry(sim)
        fired = []
        program = BPFProgram("p", fired.append, instructions=100)
        program.rate_limiter = TokenBucket(rate=1.0, burst=2.0)
        registry.attach("sys_enter_read", program)
        return sim, registry, program, fired

    def test_throttled_firings_skip_the_handler(self):
        sim, registry, program, fired = self._registry()
        for _ in range(5):
            registry.fire("sys_enter_read", "ctx")
        assert len(fired) == 2  # burst admitted, rest refused
        assert program.throttled == 3
        assert registry.total_throttled == 3
        assert registry.total_firings == 5

    def test_throttled_cost_is_the_early_exit(self):
        sim, registry, program, fired = self._registry()
        admitted_cost = registry.fire("sys_enter_read", "ctx")
        registry.fire("sys_enter_read", "ctx")
        throttled_cost = registry.fire("sys_enter_read", "ctx")
        assert throttled_cost < admitted_cost
        assert throttled_cost > 0.0  # the refused probe is not free

    def test_total_cost_accumulates(self):
        sim, registry, program, fired = self._registry()
        for _ in range(3):
            registry.fire("sys_enter_read", "ctx")
        assert registry.total_cost_ns > 0.0


# ---------------------------------------------------------------------------
# Perf buffer pressure accounting


class TestPerfBufferAccounting:
    def test_high_water_and_drop_attribution(self):
        sim = Simulator(seed=1)
        perf = PerfBuffer(sim, capacity=4)
        for index in range(4):
            assert perf.submit(index, "read")
        assert perf.high_water == 4
        assert perf.occupancy == 1.0
        assert not perf.submit(99, "read")
        assert not perf.submit(98, "write")
        assert not perf.submit(97, "write")
        assert perf.dropped == 3
        assert perf.drops_by_source == {"read": 1, "write": 2}
        perf.drain()
        assert perf.occupancy == 0.0
        assert perf.high_water == 4  # the mark is a maximum, not a gauge


# ---------------------------------------------------------------------------
# Head sampler: trace-atomic admission


class TestHeadSampler:
    def test_rate_one_admits_everything(self):
        sampler = HeadSampler(rate=1.0)
        assert sampler.admit(1, FLOW, Direction.EGRESS) == ADMIT_HEAD
        assert sampler.admit(1, FLOW, Direction.EGRESS) == ADMIT
        assert sampler.admit(1, FLOW, Direction.INGRESS) == ADMIT_HEAD
        assert sampler.exchanges_kept == 1

    def test_rate_zero_drops_new_exchanges(self):
        sampler = HeadSampler(rate=0.0)
        assert sampler.admit(1, FLOW, Direction.EGRESS) == DROP
        assert sampler.admit(1, FLOW, Direction.INGRESS) == DROP
        assert sampler.exchanges_dropped == 1

    def test_decision_is_sticky_across_rate_changes(self):
        sampler = HeadSampler(rate=1.0)
        assert sampler.admit(1, FLOW, Direction.EGRESS) == ADMIT_HEAD
        sampler.rate = 0.0  # mid-exchange rate change
        # The response of the admitted exchange still flows...
        assert sampler.admit(1, FLOW, Direction.INGRESS) == ADMIT_HEAD
        # ...and only the next exchange (response→request flip) re-decides.
        assert sampler.admit(1, FLOW, Direction.EGRESS) == DROP
        assert sampler.admit(1, FLOW, Direction.INGRESS) == DROP

    def test_forced_off_preserves_inflight_exchange(self):
        sampler = HeadSampler(rate=1.0)
        assert sampler.admit(1, FLOW, Direction.EGRESS) == ADMIT_HEAD
        sampler.forced_off = True  # SHED_SPANS engages mid-exchange
        assert sampler.admit(1, FLOW, Direction.INGRESS) == ADMIT_HEAD
        assert sampler.admit(1, FLOW, Direction.EGRESS) == DROP

    def test_both_flow_endpoints_agree(self):
        client = HeadSampler(rate=0.5)
        server = HeadSampler(rate=0.5)
        directions = [Direction.EGRESS, Direction.INGRESS] * 8
        mirrored = [Direction.INGRESS, Direction.EGRESS] * 8
        kept_client = [client.admit(7, FLOW, d) != DROP
                       for d in directions]
        kept_server = [server.admit(9, FLOW.reversed(), d) != DROP
                       for d in mirrored]
        assert kept_client == kept_server

    def test_close_socket_releases_state(self):
        sampler = HeadSampler()
        sampler.admit(1, FLOW, Direction.EGRESS)
        assert sampler.open_sockets() == 1
        sampler.close_socket(1)
        assert sampler.open_sockets() == 0

    def test_sample_permille_is_stable_and_canonical(self):
        value = sample_permille(FLOW, 3)
        assert 0 <= value < 1000
        assert sample_permille(FLOW, 3) == value
        assert sample_permille(FLOW.reversed(), 3) == value
        assert sample_permille(FLOW, 4) != value or True  # may collide


# ---------------------------------------------------------------------------
# The degradation-tier state machine


def make_controller(**kwargs):
    sampler = HeadSampler()
    defaults = dict(high_water=0.75, low_water=0.25, hysteresis_ticks=3,
                    min_rate=0.25, initial_rate=0.5)
    defaults.update(kwargs)
    return sampler, OverloadController(sampler, **defaults)


class TestOverloadController:
    def test_escalation_ladder_order(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.9, 0)
        assert ctl.tier is Tier.SHED_PAYLOAD
        ctl.tick(0.2, 0.9, 0)
        assert ctl.tier is Tier.HEAD_SAMPLE
        assert sampler.rate == 0.5
        ctl.tick(0.3, 0.9, 0)  # AIMD halve: 0.5 -> 0.25 (the floor)
        assert ctl.tier is Tier.HEAD_SAMPLE
        assert sampler.rate == 0.25
        ctl.tick(0.4, 0.9, 0)  # below the floor: shed spans entirely
        assert ctl.tier is Tier.SHED_SPANS
        assert sampler.forced_off
        names = [t[2] for t in ctl.transitions]
        assert names == ["SHED_PAYLOAD", "HEAD_SAMPLE", "SHED_SPANS"]

    def test_drops_alone_escalate(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.0, 5)  # occupancy fine, but records were lost
        assert ctl.tier is Tier.SHED_PAYLOAD

    def test_recovery_requires_hysteresis(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.9, 0)
        assert ctl.tier is Tier.SHED_PAYLOAD
        ctl.tick(0.2, 0.0, 0)
        ctl.tick(0.3, 0.0, 0)
        assert ctl.tier is Tier.SHED_PAYLOAD  # 2 healthy ticks < 3
        ctl.tick(0.4, 0.0, 0)
        assert ctl.tier is Tier.FULL

    def test_pressure_resets_hysteresis_credit(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.9, 0)
        ctl.tick(0.2, 0.0, 0)
        ctl.tick(0.3, 0.0, 0)
        ctl.tick(0.4, 0.9, 0)  # pressure returns: credit wiped, tier down
        assert ctl.tier is Tier.HEAD_SAMPLE
        ctl.tick(0.5, 0.0, 0)
        ctl.tick(0.6, 0.0, 0)
        assert ctl.tier is Tier.HEAD_SAMPLE

    def test_middle_zone_holds_tier_and_credit(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.9, 0)
        ctl.tick(0.2, 0.0, 0)
        ctl.tick(0.3, 0.0, 0)
        ctl.tick(0.4, 0.5, 0)  # between the watermarks: nothing moves
        assert ctl.tier is Tier.SHED_PAYLOAD
        assert ctl.healthy_ticks == 2
        ctl.tick(0.5, 0.0, 0)
        assert ctl.tier is Tier.FULL

    def test_full_recovery_from_shed_spans(self):
        sampler, ctl = make_controller(hysteresis_ticks=1)
        for step in range(4):
            ctl.tick(0.1 * step, 1.0, 0)
        assert ctl.tier is Tier.SHED_SPANS
        now = 1.0
        for _ in range(12):
            ctl.tick(now, 0.0, 0)
            now += 0.1
        assert ctl.tier is Tier.FULL
        assert not sampler.forced_off
        assert sampler.rate == 1.0
        # The rate walked back up multiplicatively, never past 1.0.
        rates = [rate for _, rate in ctl.rate_changes]
        assert all(rate <= 1.0 for rate in rates)

    def test_transition_log_is_deterministic(self):
        def run():
            sampler, ctl = make_controller()
            pattern = [(0.9, 0), (0.9, 0), (0.0, 0), (0.5, 0), (0.9, 3),
                       (0.0, 0), (0.0, 0), (0.0, 0), (0.0, 0), (0.0, 0)]
            for step, (occupancy, drops) in enumerate(pattern):
                ctl.tick(0.1 * step, occupancy, drops)
            return ctl.transitions, ctl.rate_changes

        assert run() == run()

    def test_validation(self):
        sampler = HeadSampler()
        with pytest.raises(ValueError):
            OverloadController(sampler, high_water=0.2, low_water=0.5)
        with pytest.raises(ValueError):
            OverloadController(sampler, hysteresis_ticks=0)

    def test_snapshot_surfaces_the_state(self):
        sampler, ctl = make_controller()
        ctl.tick(0.1, 0.9, 0)
        snapshot = ctl.snapshot()
        assert snapshot["tier"] == "SHED_PAYLOAD"
        assert snapshot["ticks"] == 1
        assert len(snapshot["transitions"]) == 1


# ---------------------------------------------------------------------------
# Agent integration: degraded pipeline, program swap, health surface


def build_world(**config_kwargs):
    sim = Simulator(seed=42)
    builder = ClusterBuilder(node_count=2)
    client_pod = builder.add_pod(0, "client")
    service_pod = builder.add_pod(1, "svc")
    cluster = builder.build()
    Network(sim, cluster)
    server = DeepFlowServer()
    config = AgentConfig(**config_kwargs)
    agents = []
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node,
                                 config=AgentConfig(**config_kwargs))
        agent.deploy(mode="full")
        agents.append(agent)
    service = HttpService("svc", service_pod.node, 9000, pod=service_pod,
                          service_time=0.001)

    @service.route("/")
    def home(worker, request):
        yield from worker.work(0.0001)
        return Response(200, body=b"ok")

    service.start()
    return sim, server, agents, client_pod, service_pod


def drive_requests(sim, client_pod, service_pod, count=6):
    from repro.apps.loadgen import LoadGenerator
    generator = LoadGenerator(client_pod.node, service_pod.ip, 9000,
                              rate=count / 0.5, duration=0.5,
                              connections=1, pod=client_pod, name="c")
    return sim.run_process(generator.run())


class TestAgentDegradedPipeline:
    def test_shed_payload_still_builds_linked_spans(self):
        sim, server, agents, client_pod, service_pod = build_world()
        for agent in agents:
            # Force SHED_PAYLOAD before any traffic.
            agent.overload.tick(sim.now, 1.0, 0)
            assert agent.overload.tier is Tier.SHED_PAYLOAD
        report = drive_requests(sim, client_pod, service_pod)
        assert report.errors == 0
        for agent in agents:
            agent.flush()
        spans = [span for span in server.store.all_spans()
                 if span.kind.name == "SYSCALL"]
        assert spans
        assert all(span.protocol == DEGRADED_PROTOCOL for span in spans)
        # Association survived payload loss: no error sessions, and the
        # request/response pairing matched every exchange.
        assert all(not span.tags.get("error.kind") for span in spans)
        svc_agent = agents[1]
        assert svc_agent.stats["payload_shed_records"] > 0
        assert svc_agent.stats["degraded_messages"] > 0
        assert svc_agent.aggregator.degraded > 0

    def test_tier_change_swaps_bytecode_and_tax(self):
        sim, server, agents, client_pod, service_pod = build_world()
        agent = agents[0]
        exit_program = agent._exit_programs[0]
        full_instructions = exit_program.effective_instructions
        full_tax = exit_program.system_tax_ns
        agent.overload.tick(0.1, 1.0, 0)
        assert exit_program.effective_instructions < full_instructions
        assert exit_program.system_tax_ns < full_tax
        assert (exit_program.effective_instructions
                == agent.config.trace_instructions)
        # Recovery restores the full program.
        for step in range(agent.overload.hysteresis_ticks):
            agent.overload.tick(0.2 + 0.1 * step, 0.0, 0)
        assert exit_program.effective_instructions == full_instructions
        assert exit_program.system_tax_ns == full_tax

    def test_protection_disabled_is_the_seed_behavior(self):
        sim, server, agents, client_pod, service_pod = build_world(
            overload_protection=False)
        assert all(agent.overload is None for agent in agents)
        report = drive_requests(sim, client_pod, service_pod)
        assert report.errors == 0
        for agent in agents:
            agent.flush()
        spans = [span for span in server.store.all_spans()
                 if span.kind.name == "SYSCALL"]
        assert spans
        assert all(span.protocol != DEGRADED_PROTOCOL for span in spans)
        health = agents[0].health()
        assert health["protection"] is False
        assert health["tier"] == "FULL"

    def test_health_and_hook_stats_surfaces(self):
        sim, server, agents, client_pod, service_pod = build_world()
        drive_requests(sim, client_pod, service_pod)
        for agent in agents:
            agent.flush()
        agent = agents[1]
        health = agent.health()
        assert health["protection"] is True
        assert health["tier"] == "FULL"
        assert health["perf"]["capacity"] == 65536
        assert health["perf"]["high_water"] >= 1
        assert health["perf"]["submitted"] > 0
        assert "records_admitted" in health
        stats = agent.hook_stats()
        assert stats["throttled"] == 0
        assert stats["perf"]["dropped"] == 0
        assert all("throttled" in entry for entry in stats["programs"])

    def test_hook_rate_limit_throttles_firings(self):
        sim, server, agents, client_pod, service_pod = build_world(
            hook_rate_limit=4.0, hook_rate_burst=2.0)
        drive_requests(sim, client_pod, service_pod, count=20)
        for agent in agents:
            agent.flush()
        stats = agents[1].hook_stats()
        assert stats["throttled"] > 0
        assert agents[1].health()["throttled"] == stats["throttled"]
