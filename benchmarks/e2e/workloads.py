"""The four workloads: what each one builds, times and checks.

Every workload is a fixed amount of work per *pass*; the harness repeats
passes for the measuring time and reports the rate of the fastest tenth
(``harness.steady_rate``).  A pass builds fresh
program objects (world, agents, server) outside its timed region, so no
pass inherits the previous one's stores or caches, and all passes of one
seed do bit-identical simulated work (the sim digest proves it).

Noise hygiene (``Region`` below): ``gc.collect()`` before
each timed region with the collector left enabled inside it, no host
threads, tape copies and server construction outside the timed region,
``time.perf_counter`` only.

What ``--seed`` varies: the *shape* of the generated service graph (and
where its pods land), never its size — ``servicegen`` draws anywhere
from 4 to 33 sessions per request, so seeds are mapped onto topology
seeds that all give ``SESSIONS_PER_REQUEST`` — plus the request path,
which every payload and hence every parse-cache key carries.
"""

from __future__ import annotations

import copy
import gc
import itertools
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from repro.agent.agent import DeepFlowAgent
from repro.apps import servicegen, springboot
from repro.apps.loadgen import LoadGenerator
from repro.core.export import OtlpDecodeError, OtlpStreamExporter, \
    decode_otlp_json
from repro.core.span import SpanSide
from repro.kernel.kernel import Kernel
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

#: The ``chain_fanout`` service graph (ISSUE 13): 4 layers, 19 services.
CHAIN_TOPOLOGY = dict(layers=4, width=6, fanout=3, node_count=6)
SESSIONS_PER_REQUEST = 19
#: ``Simulator`` seeds whose generated graph has exactly
#: ``SESSIONS_PER_REQUEST`` sessions, pods on all six nodes, and agents
#: that ship 12 to 13 batches per request (found by scanning upward
#: from 0 and capturing a tape for each candidate).  Shipments per
#: request otherwise range from 8.5 to 14, and the server's cost per
#: span follows the batch size.  A hint, not a definition:
#: ``pick_topology_seed`` scans on from the hinted seed if ``servicegen``
#: ever draws differently.
TOPOLOGY_SEEDS = (1, 17, 338, 413, 533, 628, 673, 755, 1129, 1230, 1277,
                  1557, 1706, 1707, 1866, 1935, 1954, 1955, 1960, 2172,
                  2281, 2310, 2335, 2538)

CHAIN_RATE = 40.0          # rps, below the ≈64 rps saturation point
CHAIN_CONNECTIONS = 2
CHAIN_REQUESTS = 160       # per chain_fanout pass (4 sim-s)
CHAIN_WARMUP_REQUESTS = 16
TAPE_REQUESTS = 150        # span tape: 150 × 38 = 5,700 spans
SHARDS = 4
#: sim seconds the world keeps running after the last response, so the
#: agents' pollers ship and every trace retires on its own lifecycle
#: (``finish_after`` is 1.0) rather than by the final forced drain.
CHAIN_SETTLE_S = 1.5
HEARTBEAT_S = 0.05         # ``ContinuousAssembler.run``'s default interval

SPRING_RATE = 100.0
SPRING_REQUESTS = 400      # record tape: ≈20 records per request
SPRING_CONNECTIONS = 4

#: A query round after every 192 spans ingested — ISSUE 13's "every 64
#: batches" at this topology's 3 spans per shipment, counted in spans so
#: that every seed issues the same number of queries.
QUERY_EVERY_SPANS = 192
QUERIES_PER_ROUND = 32
SPAN_LIST_WINDOW_S = 1.0
OTLP_SAMPLE_EVERY = 50


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list (the repo's
    ``LoadReport.percentile`` convention); 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Region:
    """One timed region: collect garbage, then time with the collector
    left on (a pass allocates as a real run does; a collection that the
    program's garbage triggers is the program's cost)."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "Region":
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = perf_counter() - self._start
        if self.tracer is not None and exc_info[0] is None:
            self.tracer.end(self.elapsed)


@dataclass
class Pass:
    """What one pass measured.  Host-time fields are ``timed_s`` and
    ``query_us``; everything under ``sim`` is simulated and repeats
    exactly for a given seed."""

    timed_s: float
    spans: int                 # spans that completed the whole path
    attempted: int
    failed: int
    problems: list[str]
    #: digest fields: sim events, syscalls, records, spans, traces,
    #: merges, app_p99_sim_ms, finish_lag_p99_sim_ms.
    sim: dict
    #: deterministic per-layer counts read from the program's counters.
    counts: dict = field(default_factory=dict)
    trace_complete_ratio: float = 0.0
    query_us: list = field(default_factory=list)


class SamplingExporter(OtlpStreamExporter):
    """The OTLP endpoint of the benchmark: drops payloads like the
    throughput benches do, but keeps every 50th for the decode check."""

    def __init__(self) -> None:
        super().__init__(keep_payloads=False)
        self.samples: list[dict] = []

    def export_trace(self, trace):
        payload = super().export_trace(trace)
        if self.exported_traces % OTLP_SAMPLE_EVERY == 0:
            self.samples.append(payload)
        return payload


class CountingSink:
    """Stands in for the server behind ``agent.ship()``."""

    def __init__(self) -> None:
        self.spans = 0
        self.batches = 0

    def ingest_spans(self, spans, tenant=None, now=None) -> None:
        self.spans += len(spans)
        self.batches += 1


# -- the live chain (chain_fanout, and tape capture for the server pair) ----

def pick_topology_seed(seed: int) -> int:
    """Map a workload seed onto a topology seed of the fixed size."""
    hint = TOPOLOGY_SEEDS[seed % len(TOPOLOGY_SEEDS)]
    for candidate in itertools.count(hint):
        app = servicegen.generate(Simulator(seed=candidate),
                                  **CHAIN_TOPOLOGY)
        if app.sessions_per_request() == SESSIONS_PER_REQUEST:
            return candidate


def build_chain(topology_seed: int, server: DeepFlowServer):
    """Deploy the service graph and one polling agent per node."""
    app = servicegen.generate(Simulator(seed=topology_seed),
                              **CHAIN_TOPOLOGY)
    agents = []
    for node in app.cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agent.start_polling()
        agents.append(agent)
    return app, agents


def drive_chain(app, agents, requests: int, path: str):
    """Cadence-scheduled closed loop, then let the pipeline settle."""
    sim = app.sim
    pod = app.pods["loadgen"]
    generator = LoadGenerator(pod.node, app.entry_ip, app.entry_port,
                              rate=CHAIN_RATE,
                              duration=requests / CHAIN_RATE,
                              connections=CHAIN_CONNECTIONS, path=path,
                              pod=pod)
    report = sim.run_process(generator.run())
    sim.run(until=sim.now + CHAIN_SETTLE_S)
    for agent in agents:
        agent.flush(expire=True)
    return report


def streaming_server(tags=None):
    """``DeepFlowServer(shards=4)`` with the push path and the sampling
    exporter; *tags* shares a recorded tag registry (replay)."""
    server = DeepFlowServer(shards=SHARDS)
    if tags is not None:
        server.tags = tags
    exporter = SamplingExporter()
    server.enable_streaming(exporter=exporter)
    return server, exporter


def agent_failures(agents) -> tuple[int, list[str]]:
    """Ring drops and hook runtime faults across *agents*."""
    drops = sum(agent.perf.dropped for agent in agents)
    faults = sum(agent.hook_stats()["runtime_faults"] for agent in agents)
    problems = []
    if drops:
        problems.append(f"{drops} perf-ring drops")
    if faults:
        problems.append(f"{faults} hook runtime faults")
    return drops + faults, problems


def streaming_outcome(server, exporter, requests: int):
    """Check the push path's output against *requests* attempted.

    Returns ``(failed, problems, complete_ratio, lag_p99_ms)``: one
    exported trace per request, each with ``2 × sessions`` spans, and
    every sampled payload passing the strict decoder.
    """
    finished = server.streaming.finished
    expected = 2 * SESSIONS_PER_REQUEST
    complete = sum(1 for record in finished if len(record.trace) == expected)
    undecodable = 0
    for payload in exporter.samples:
        try:
            decode_otlp_json(payload)
        except OtlpDecodeError:
            undecodable += 1
    problems = []
    if len(finished) != requests or complete != requests:
        problems.append(f"{requests} requests gave {len(finished)} traces, "
                        f"{complete} with {expected} spans")
    if exporter.exported_traces != len(finished):
        problems.append("exporter and assembler disagree on trace count")
    if undecodable:
        problems.append(f"{undecodable} OTLP payloads failed to decode")
    lags = sorted(record.assembly_lag for record in finished)
    failed = (requests - min(complete, requests)) + undecodable
    return (failed, problems, complete / requests,
            percentile(lags, 0.99) * 1e3)


def store_counts(server) -> dict:
    """Per-layer counts the server keeps about itself."""
    shard = server.store.shard_stats()
    counts = {
        "server.ingest.batches": server.pipeline_metrics.get(
            "server.ingest_batches").value,
        "server.store.spans": shard["spans"],
        "server.store.boundary_links": shard["boundary_links"],
        "server.store.shard_imbalance": shard["imbalance"],
    }
    if server.streaming is not None:
        stream = server.streaming.stats()
        counts["server.streaming.merges"] = stream["merges"]
        counts["server.streaming.finished"] = stream["finished"]
        counts["server.streaming.forced_finishes"] = sum(
            1 for record in server.streaming.finished
            if record.reason == "forced")
        exporter = server.streaming.exporter
        counts["core.export.traces"] = exporter.exported_traces
        counts["core.export.spans"] = exporter.exported_spans
    return counts


def agent_counts(agents, kernels=()) -> dict:
    """Per-layer counts the agents and kernels keep about themselves."""
    return {
        "kernel.syscalls": sum(k.syscall_count for k in kernels),
        "kernel.hooks.fires": sum(k.hooks.total_firings for k in kernels),
        "kernel.ring_submitted": sum(a.perf.total_submitted
                                     for a in agents),
        "kernel.ring_drops": sum(a.perf.dropped for a in agents),
        "agent.events": sum(a.stats["events_processed"] for a in agents),
        "agent.spans_emitted": sum(a.stats["spans_emitted"]
                                   for a in agents),
    }


def sim_events(sim: Simulator) -> int:
    """Callbacks the engine has run.  It keeps no public count, so this
    reads the tie-break sequence (one per scheduled callback) less what
    is still queued."""
    return sim._seq - len(sim._heap)


class Workload:
    """One workload for one seed.  ``scale`` shrinks the fixed sizes
    (the smoke test runs at a fraction); the benchmark runs at 1."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.path_token = f"{seed:08x}"

    def scaled(self, size: int) -> int:
        return max(8, round(size * self.scale))

    def setup(self) -> None:
        """Once per run: choose the topology, capture the tape."""
        raise NotImplementedError

    def prepare(self):
        """Before every pass, untimed: fresh program objects and tape
        copies.  Returns what ``measure`` needs."""
        raise NotImplementedError

    def measure(self, prepared, tracer=None) -> Pass:
        """The timed region of one pass — traced when *tracer* is
        given — then its output check."""
        raise NotImplementedError


class ChainFanout(Workload):
    """The live full chain: loadgen → sim kernel → hooks → perf ring →
    agents → sharded streaming server → OTLP export."""

    name = "chain_fanout"

    def setup(self) -> None:
        self.topology_seed = pick_topology_seed(self.seed)
        self.requests = self.scaled(CHAIN_REQUESTS)
        # Warm-up on a throw-away world, as the tape captures are for
        # the replay workloads: the first requests through a process
        # run on cold code, and set-up is where that belongs.
        _server, _exporter, app, agents = self.prepare()
        drive_chain(app, agents, CHAIN_WARMUP_REQUESTS, "/warm-up")

    def prepare(self):
        server, exporter = streaming_server()
        app, agents = build_chain(self.topology_seed, server)
        server.streaming.run(app.sim)
        return server, exporter, app, agents

    def measure(self, prepared, tracer=None) -> Pass:
        server, exporter, app, agents = prepared
        sim = app.sim
        with Region(tracer) as timed:
            report = drive_chain(app, agents, self.requests,
                                 f"/{self.path_token}")
            server.streaming.drain(sim.now)
        kernels = list(app.network.kernels.values())
        failed, problems = agent_failures(agents)
        unanswered = report.sent - report.completed
        if unanswered:
            problems.append(f"{unanswered} requests errored or unanswered")
        stream_failed, stream_problems, ratio, lag_ms = streaming_outcome(
            server, exporter, self.requests)
        counts = {**agent_counts(agents, kernels), **store_counts(server)}
        return Pass(
            timed_s=timed.elapsed, spans=exporter.exported_spans,
            attempted=self.requests,
            failed=failed + unanswered + stream_failed,
            problems=problems + stream_problems,
            sim={"sim_events": sim_events(sim),
                 "syscalls": counts["kernel.syscalls"],
                 "records": counts["agent.events"],
                 "spans": exporter.exported_spans,
                 "traces": exporter.exported_traces,
                 "merges": counts["server.streaming.merges"],
                 "app_p99_sim_ms": report.p99 * 1e3,
                 "finish_lag_p99_sim_ms": lag_ms},
            counts=counts, trace_complete_ratio=ratio)


class AgentReplay(Workload):
    """A perf-ring record tape from the Spring Boot demo, replayed into
    fresh agents on bare kernels against a counting sink."""

    name = "agent_replay"

    def setup(self) -> None:
        requests = self.scaled(SPRING_REQUESTS)
        sim = Simulator(seed=self.seed)
        app = springboot.build(sim)
        sink = CountingSink()
        server = DeepFlowServer()
        server.ingest_spans = sink.ingest_spans
        #: (sim time, agent index, [(record, source), ...]) per poll.
        self.cycles: list[tuple] = []
        agents = []
        for index, node in enumerate(app.cluster.nodes):
            agent = server.new_agent(node.kernel, node=node)
            agent.deploy()
            self._tap(agent, index)
            agent.start_polling()
            agents.append(agent)
        pod = app.pods["loadgen"]
        generator = LoadGenerator(pod.node, app.entry_ip, app.entry_port,
                                  rate=SPRING_RATE,
                                  duration=requests / SPRING_RATE,
                                  connections=SPRING_CONNECTIONS,
                                  path=f"/api/{self.path_token}", pod=pod)
        report = sim.run_process(generator.run())
        sim.run(until=sim.now + 0.5)
        for agent in agents:
            agent.flush(expire=True)
        if report.completed != requests:
            raise RuntimeError(f"capture: {report.completed} of {requests} "
                               f"requests completed")
        self.hosts = [node.name for node in app.cluster.nodes]
        self.end_time = sim.now
        self.records = sum(len(cycle[2]) for cycle in self.cycles)
        self.shipped = sink.spans

    def _tap(self, agent: DeepFlowAgent, index: int) -> None:
        """Record every ``perf.submit`` argument, cut into poll cycles."""
        pending: list[tuple] = []
        submit, poll = agent.perf.submit, agent.poll
        sim, cycles = agent.sim, self.cycles

        def recording_submit(record, source=""):
            # A copy, because the kernel reuses one uprobe record for
            # the enter and the return probe.
            pending.append((copy.copy(record), source))
            return submit(record, source)

        def recording_poll():
            if pending:
                cycles.append((sim.now, index, pending[:]))
                pending.clear()
            return poll()

        agent.perf.submit = recording_submit
        agent.poll = recording_poll

    def prepare(self):
        sim = Simulator()
        sink = CountingSink()
        agents = [DeepFlowAgent(Kernel(sim, host), index + 1, server=sink)
                  for index, host in enumerate(self.hosts)]
        schedule = [(now, agents[index], agents[index].perf.submit, records)
                    for now, index, records in self.cycles]
        return sim, sink, agents, schedule

    def measure(self, prepared, tracer=None) -> Pass:
        sim, sink, agents, schedule = prepared
        ring = tracer.span("kernel.ring") if tracer else nullcontext()
        with Region(tracer) as timed:
            for now, agent, submit, records in schedule:
                sim.now = now
                with ring:
                    for record, source in records:
                        submit(record, source)
                agent.poll()
                agent.ship()
            sim.now = self.end_time
            for agent in agents:
                agent.flush(expire=True)
        failed, problems = agent_failures(agents)
        counts = agent_counts(agents)
        if counts["agent.events"] != self.records:
            problems.append(f"drained {counts['agent.events']} of "
                            f"{self.records} records")
        if sink.spans != self.shipped:
            problems.append(f"replay shipped {sink.spans} spans, capture "
                            f"shipped {self.shipped}")
        failed += abs(sink.spans - self.shipped)
        counts["server.ingest.batches"] = sink.batches
        return Pass(
            timed_s=timed.elapsed, spans=sink.spans,
            attempted=self.records, failed=failed, problems=problems,
            sim={"sim_events": 0, "syscalls": 0,
                 "records": counts["agent.events"], "spans": sink.spans,
                 "traces": 0, "merges": 0, "app_p99_sim_ms": 0.0,
                 "finish_lag_p99_sim_ms": 0.0},
            counts=counts)


class SpanTape:
    """Every ``ingest_spans(batch, now)`` argument of one chain run,
    captured before enrichment, with the tag registry it filled."""

    def __init__(self, seed: int, requests: int, path: str) -> None:
        server = DeepFlowServer()
        self.batches: list[tuple[list, float]] = []
        # The capture server never stores: the spans stay as the agents
        # built them, and every replay ingests its own copies.
        server.ingest_spans = self._record
        app, agents = build_chain(pick_topology_seed(seed), server)
        report = drive_chain(app, agents, requests, path)
        if report.completed != requests:
            raise RuntimeError(f"capture: {report.completed} of {requests} "
                               f"requests completed")
        self.tags = server.tags
        self.requests = requests
        self.spans = sum(len(batch) for batch, _now in self.batches)
        self.end_time = self.batches[-1][1]

    def _record(self, spans, tenant=None, now=None) -> None:
        self.batches.append((spans, now))

    def copies(self) -> list[tuple[list, float]]:
        """Fresh span objects: ingest enriches tags and assembly sets
        ``parent_id``, so no two servers may share them."""
        out = []
        for batch, now in self.batches:
            twins = []
            for span in batch:
                twin = copy.copy(span)
                twin.tags = dict(span.tags)
                twin.metrics = dict(span.metrics)
                twins.append(twin)
            out.append((twins, now))
        return out

    def replay_push(self):
        """One untimed push-path replay; returns (server, exporter)."""
        server, exporter = streaming_server(self.tags)
        feed_push(server, self.copies(), self.end_time)
        return server, exporter


def feed_push(server, batches, end_time: float) -> None:
    """Ingest → routing → commit → push assembly → OTLP encode."""
    for batch, now in batches:
        server.ingest_spans(batch, now=now)
    # The assembler's heartbeat (``ContinuousAssembler.run``) for the
    # settle time of the captured run: what the last batches left open
    # retires on its own lifecycle, and nothing should be left for the
    # forced drain.
    streaming = server.streaming
    now = end_time
    while now < end_time + CHAIN_SETTLE_S:
        now += HEARTBEAT_S
        streaming.tick(now)
    streaming.drain(now)


class ServerReplay(Workload):
    """The span tape replayed into a fresh sharded streaming server:
    the write side of the server."""

    name = "server_replay"

    def setup(self) -> None:
        self.tape = SpanTape(self.seed, self.scaled(TAPE_REQUESTS),
                             f"/{self.path_token}")

    def prepare(self):
        return (*streaming_server(self.tape.tags), self.tape.copies())

    def measure(self, prepared, tracer=None) -> Pass:
        server, exporter, batches = prepared
        tape = self.tape
        with Region(tracer) as timed:
            feed_push(server, batches, tape.end_time)
        failed, problems, ratio, lag_ms = streaming_outcome(
            server, exporter, tape.requests)
        if server.ingested_spans != tape.spans:
            problems.append(f"ingested {server.ingested_spans} of "
                            f"{tape.spans} spans")
            failed += tape.spans - server.ingested_spans
        counts = store_counts(server)
        return Pass(
            timed_s=timed.elapsed, spans=exporter.exported_spans,
            attempted=tape.spans, failed=failed, problems=problems,
            sim={"sim_events": 0, "syscalls": 0, "records": 0,
                 "spans": exporter.exported_spans,
                 "traces": exporter.exported_traces,
                 "merges": counts["server.streaming.merges"],
                 "app_p99_sim_ms": 0.0, "finish_lag_p99_sim_ms": lag_ms},
            counts=counts, trace_complete_ratio=ratio)


class QueryMix(Workload):
    """The server read the other way: a pull-path store preloaded with
    half the tape takes the rest in its recorded batches while queries
    land on the uncommitted writes."""

    name = "query_mix"

    def setup(self) -> None:
        tape = self.tape = SpanTape(self.seed, self.scaled(TAPE_REQUESTS),
                                    f"/{self.path_token}")
        # Reference: the push path's traces over the same tape.
        reference, _exporter = tape.replay_push()
        batch_of = {span.span_id: index
                    for index, (batch, _now) in enumerate(tape.batches)
                    for span in batch}
        #: client span id → span-id set of its trace.
        self.members: dict[int, frozenset] = {}
        ready: list[tuple[int, int]] = []
        for record in reference.streaming.finished:
            ids = frozenset(span.span_id for span in record.trace)
            whole_at = max(batch_of[span_id] for span_id in ids)
            for span in record.trace:
                if span.side is SpanSide.CLIENT:
                    self.members[span.span_id] = ids
                    ready.append((whole_at, span.span_id))
        ready.sort()
        # Half the spans are preloaded.  Query rounds follow every
        # ``QUERY_EVERY_SPANS`` timed spans and the last batch; each
        # samples client spans whose whole trace is in.
        self.preload = 0
        rounds = []
        loaded = timed = 0
        for index, (batch, _now) in enumerate(tape.batches):
            if loaded < tape.spans // 2:
                loaded += len(batch)
                self.preload = index + 1
                continue
            before, timed = timed, timed + len(batch)
            if before // QUERY_EVERY_SPANS != timed // QUERY_EVERY_SPANS:
                rounds.append(index)
        last = len(tape.batches) - 1
        if rounds[-1:] != [last]:
            rounds.append(last)
        sampler = random.Random(self.seed)
        self.plan: dict[int, list[int]] = {}
        cursor = 0
        for index in rounds:
            while cursor < len(ready) and ready[cursor][0] <= index:
                cursor += 1
            if cursor:
                self.plan[index] = [ready[sampler.randrange(cursor)][1]
                                    for _ in range(QUERIES_PER_ROUND)]

    def prepare(self):
        batches = self.tape.copies()
        server = DeepFlowServer(shards=SHARDS)
        server.tags = self.tape.tags
        for batch, now in batches[:self.preload]:
            server.ingest_spans(batch, now=now)
        server.store.flush()
        return server, batches

    def measure(self, prepared, tracer=None) -> Pass:
        server, batches = prepared
        plan = self.plan
        clock = perf_counter
        query_s: list[float] = []
        answers: list[tuple] = []
        listed: list[tuple] = []
        timed_spans = 0
        with Region(tracer) as timed:
            for index in range(self.preload, len(batches)):
                batch, now = batches[index]
                server.ingest_spans(batch, now=now)
                timed_spans += len(batch)
                wanted = plan.get(index)
                if wanted is None:
                    continue
                for span_id in wanted:
                    start = clock()
                    trace = server.trace(span_id)
                    query_s.append(clock() - start)
                    answers.append((span_id, trace))
                listed.append((
                    server.span_list(now - SPAN_LIST_WINDOW_S, now),
                    server.slowest_span()))
        problems = []
        wrong = sum(
            1 for span_id, trace in answers
            if frozenset(s.span_id for s in trace) != self.members[span_id])
        empty = sum(1 for spans, slowest in listed
                    if not spans or slowest is None)
        if wrong:
            problems.append(f"{wrong} of {len(answers)} trace() results "
                            f"differ from the push-path trace")
        if empty:
            problems.append(f"{empty} span_list/slowest_span came back "
                            f"empty")
        if not answers:
            problems.append("no trace queries were issued")
        counts = store_counts(server)
        counts["server.assembler.queries"] = len(answers)
        return Pass(
            timed_s=timed.elapsed, spans=timed_spans,
            attempted=timed_spans + len(answers) + 2 * len(listed),
            failed=wrong + empty, problems=problems,
            sim={"sim_events": 0, "syscalls": 0, "records": 0,
                 "spans": server.ingested_spans, "traces": len(answers),
                 "merges": 0, "app_p99_sim_ms": 0.0,
                 "finish_lag_p99_sim_ms": 0.0},
            counts=counts,
            query_us=[seconds * 1e6 for seconds in query_s])


WORKLOADS = {cls.name: cls
             for cls in (ChainFanout, AgentReplay, ServerReplay, QueryMix)}
