"""Bytes the span store keeps per stored span.

The server is sized by how many spans it can keep (§3.4, Fig 14), so the
store's own structures — id map, postings, forest, time runs — and what
enrichment adds to a span are gated per stored span.  Enrichment adds
nothing per span: every span of one endpoint and tenant holds the same
read-only tag map, so its strings are kept once per endpoint (Fig 8
step ⑦), not copied into each span.  The figure is an allocation count, not a
timing: ``tracemalloc`` attributes each live block to the line that
allocated it, so it is the same on any machine for one interpreter.

The spans come from the ``chain_fanout`` service graph (``servicegen``,
4 layers, 19 sessions per request), captured as the agents ship them and
then ingested into a fresh ``DeepFlowServer(shards=4)``; the span
objects and their tag dicts are allocated outside the traced window.
A full collection empties the interpreter's free lists before the
traced window, so no block the window takes is one allocated earlier
(and untraced), and again before the snapshot, so tuples that sorts and
link batches freed are not counted as retained.
"""

import gc
import tracemalloc
from types import MappingProxyType

import pytest

from repro.apps import servicegen
from repro.apps.loadgen import LoadGenerator
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

REQUESTS = 40
SPANS_PER_REQUEST = 38


def _capture(requests: int, seed: int = 1):
    """Every ``ingest_spans`` batch of a chain run, with its tag
    registry; the capture server stores nothing."""
    capture = DeepFlowServer()
    batches = []
    capture.ingest_spans = (
        lambda spans, tenant=None, now=None: batches.append((spans, now)))
    app = servicegen.generate(Simulator(seed=seed), layers=4, width=6,
                              fanout=3, node_count=6)
    agents = []
    for node in app.cluster.nodes:
        agent = capture.new_agent(node.kernel, node=node)
        agent.deploy()
        agent.start_polling()
        agents.append(agent)
    pod = app.pods["loadgen"]
    generator = LoadGenerator(pod.node, app.entry_ip, app.entry_port,
                              rate=40.0, duration=requests / 40.0,
                              connections=2, path="/store", pod=pod)
    report = app.sim.run_process(generator.run())
    assert report.completed == requests
    app.sim.run(until=app.sim.now + 1.5)
    for agent in agents:
        agent.flush(expire=True)
    return capture.tags, batches


@pytest.fixture(scope="module")
def retained():
    """``(stored spans, {module under repro/server/: bytes})`` of what
    ingest plus a full commit leave allocated."""
    tags, batches = _capture(REQUESTS)
    server = DeepFlowServer(shards=4)
    server.tags = tags
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    tracemalloc.start()
    try:
        for spans, now in batches:
            server.ingest_spans(spans, now=now)
        server.store.flush()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    spans = server.store.all_spans()
    assert len(spans) == REQUESTS * SPANS_PER_REQUEST
    by_module: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename.replace("\\", "/")
        if "/repro/server/" in path:
            module = path.rsplit("/repro/", 1)[1]
            by_module[module] = by_module.get(module, 0) + stat.size
    return spans, by_module


def test_server_modules_retain_at_most_530_bytes_per_span(retained):
    """Everything ``repro/server/`` allocates and keeps: the store, the
    forest and the shared tag maps (927 B before the postings became
    lists and the runs held spans, 681 after, 474 once enrichment
    stopped copying the resource tags into each span)."""
    spans, by_module = retained
    per_span = sum(by_module.values()) / len(spans)
    assert per_span <= 530, (per_span, by_module)


def test_enrichment_retains_at_most_8_bytes_per_span(retained):
    """``server/server.py`` keeps nothing per span (208 B when it copied
    the endpoint's 6 decoded tags into every span's own dict), and the
    stored spans hold one tag map per endpoint and tenant."""
    spans, by_module = retained
    per_span = by_module.get("server/server.py", 0) / len(spans)
    assert per_span <= 8, (per_span, by_module)
    maps: dict = {}
    for span in spans:
        tags = span.tags
        if isinstance(tags, MappingProxyType):
            key = (tags["vpc"], tags["ip"], tags.get("tenant"))
            maps.setdefault(key, set()).add(id(tags))
    assert maps and all(len(ids) == 1 for ids in maps.values()), maps


def test_span_store_retains_at_most_300_bytes_per_span(retained):
    """``server/database.py`` alone: id map, postings and time runs
    (514 B with set postings and ``(start, id, span)`` run entries, 268
    with list postings and runs of spans)."""
    spans, by_module = retained
    per_span = by_module.get("server/database.py", 0) / len(spans)
    assert per_span <= 300, (per_span, by_module)
