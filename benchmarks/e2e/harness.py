"""Measuring one workload in one process: set-up, timed passes, the
traced passes, and the result record.

End-to-end metrics always come from passes run with tracing off.  A
traced run (``trace=True``) first runs untraced passes — they give the
base for ``trace.overhead_ratio`` and the workload-specific diagnostics —
then installs the tracer and runs traced passes for the per-layer split.

The metric names and units are read from ``BENCHMARK.json``, so the
result always matches the contract the driver checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

from benchmarks.e2e import tracing
from benchmarks.e2e.workloads import WORKLOADS, Pass, percentile

ROOT = Path(__file__).resolve().parents[2]

#: Where results and span aggregates go unless ``--out`` says otherwise:
#: inside the checkout (the driver allows no writes outside it), in the
#: directory the root ``.gitignore`` keeps for build and run leftovers.
DEFAULT_OUT = ROOT / ".bench_build" / "e2e"

#: Set-up is repeated and its median reported (contract): at least this
#: often, and more for a cheap set-up until the budget is spent.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_BUDGET_S = 1.0

#: Share of a traced run's measuring time spent on the untraced passes.
UNTRACED_SHARE = 0.3

#: Workload-specific end-to-end metrics.  The driver's contract wants
#: every gated metric on every workload and never 0, so these cannot sit
#: in BENCHMARK.json's ``end_to_end``; they are measured untraced all the
#: same, reported under ``per_layer``, and gated by ``compare`` with the
#: bounds of ISSUE 13: name → (better, bound, workloads).
WORKLOAD_GATES = {
    "events_per_s": ("higher", 0.20, ("chain_fanout", "agent_replay")),
    "trace_query_p50_us": ("lower", 0.10, ("query_mix",)),
    "trace_query_p99_us": ("lower", 0.20, ("query_mix",)),
    "finish_lag_p99_sim_ms": ("lower", 0.0,
                              ("chain_fanout", "server_replay")),
    "app_p99_sim_ms": ("lower", 0.0, ("chain_fanout",)),
    "trace_complete_ratio": ("higher", 0.0,
                             ("chain_fanout", "server_replay")),
}


def load_spec() -> dict:
    """``BENCHMARK.json`` from the repository root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (dict, list, int and float
    work, the interpreter paths the program lives on).  Carried in every
    record so numbers from two machines can be normalised; never gated."""
    start = perf_counter()
    table: dict[int, float] = {}
    acc = 0
    for i in range(300_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += len(str(key)) + (key >> 3)
    items = sorted(table.items())[:1000]
    acc += sum(int(value) for _key, value in items)
    return perf_counter() - start if acc else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_digest(fields: dict) -> str:
    """Hash of a pass's simulated statistics."""
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_passes(workload, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes until *seconds* have gone by (at least one)."""
    deadline = perf_counter() + seconds
    passes = []
    while True:
        passes.append(workload.measure(workload.prepare(), tracer))
        if perf_counter() >= deadline:
            return passes


def set_up(workload_cls, seed: int, scale: float, repeats: int,
           budget_s: float):
    """Set up *repeats* times, and on while that has taken less than
    *budget_s*; returns (the last workload, median seconds)."""
    times = []
    while len(times) < repeats or (sum(times) < budget_s
                                   and len(times) < SETUP_MAX_REPEATS):
        workload = workload_cls(seed, scale)
        gc.collect()
        start = perf_counter()
        workload.setup()
        workload.prepare()
        times.append(perf_counter() - start)
    return workload, statistics.median(times)


def steady_rate(rates) -> float:
    """The rate the fastest tenth of a run's passes reach.

    All passes of a run do identical work, so the spread between them
    is the machine's, and it is one-sided: a neighbour on the host, a
    migration, a cold cache only ever slow a pass down.  On the 2-core
    reference box such episodes last seconds and drag a run's median by
    up to a third, while its upper decile moves a few percent — so the
    upper decile is what can tell a changed program from a busy box.
    """
    return percentile(sorted(rates), 0.9)


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """The metrics every workload reports, from untraced passes."""
    return {
        "setup_s": setup_s,
        "spans_per_s": steady_rate(p.spans / p.timed_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def diagnostics(passes: list[Pass]) -> dict:
    """Workload-specific metrics, from untraced passes (0 where a
    workload has no such thing)."""
    first = passes[0]
    queries = sorted(us for p in passes for us in p.query_us)
    return {
        "events_per_s": steady_rate(
            p.counts.get("agent.events", 0) / p.timed_s for p in passes),
        "trace_query_p50_us": percentile(queries, 0.50),
        "trace_query_p99_us": percentile(queries, 0.99),
        "finish_lag_p99_sim_ms": first.sim["finish_lag_p99_sim_ms"],
        "app_p99_sim_ms": first.sim["app_p99_sim_ms"],
        "trace_complete_ratio": first.trace_complete_ratio,
    }


def per_layer(tracer: tracing.Tracer, traced: list[Pass],
              untraced: list[Pass], calib_s: float) -> dict:
    """Per-layer self times and counts, per traced pass."""
    n = len(traced)
    layers = {name: total / n
              for name, total in tracer.layer_self_s().items()}
    counts = traced[0].counts

    def self_s(layer: str) -> float:
        return layers.get(layer, 0.0)

    def calls(name: str) -> float:
        return tracer.calls(name) / n

    def per(seconds: float, count: float) -> float:
        return seconds / count * 1e6 if count else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    batches = count("server.ingest.batches")
    ingested = count("server.store.spans")
    out = {
        "sim.events": calls("sim.step"),
        "sim.self_s": self_s("sim"),
        "apps.self_s": self_s("apps"),
        "kernel.syscalls": count("kernel.syscalls"),
        "kernel.self_s": self_s("kernel"),
        "kernel.hooks.fires": count("kernel.hooks.fires"),
        "kernel.hooks.self_s": self_s("kernel.hooks"),
        "kernel.ring_submitted": count("kernel.ring_submitted"),
        "kernel.ring_drops": count("kernel.ring_drops"),
        "network.sends": calls("network.send"),
        "network.self_s": self_s("network"),
        "agent.events": count("agent.events"),
        "agent.poll_calls": calls("agent.poll"),
        "agent.self_s": self_s("agent"),
        "agent.spans_emitted": count("agent.spans_emitted"),
        "agent.spans_per_ship": (count("agent.spans_emitted") / batches
                                 if batches else 0.0),
        "protocols.infer_calls": calls("protocols.parse"),
        "protocols.self_s": self_s("protocols"),
        "server.ingest.batches": batches,
        "server.ingest.spans_per_batch": (ingested / batches
                                          if batches and ingested else 0.0),
        "server.ingest.self_s": self_s("server.ingest"),
        "server.store.spans": ingested,
        "server.store.self_s": self_s("server.store"),
        "server.store.boundary_links": count("server.store.boundary_links"),
        "server.store.shard_imbalance": count(
            "server.store.shard_imbalance"),
        "server.store.flush_calls": sum(calls(name)
                                        for name in tracing.FLUSH_SPANS),
        "server.store.flush_s": tracer.self_s(tracing.FLUSH_SPANS) / n,
        "server.store.span_list_s": tracer.self_s(
            tracing.SPAN_LIST_SPANS) / n,
        "server.streaming.self_s": self_s("server.streaming"),
        "server.streaming.merges": count("server.streaming.merges"),
        "server.streaming.finished": count("server.streaming.finished"),
        "server.streaming.forced_finishes": count(
            "server.streaming.forced_finishes"),
        "server.assembler.queries": count("server.assembler.queries"),
        "server.assembler.self_s": self_s("server.assembler"),
        "core.export.traces": count("core.export.traces"),
        "core.export.spans": count("core.export.spans"),
        "core.export.self_s": self_s("core.export"),
        "host.calib_s": calib_s,
        "trace.coverage_ratio": sum(layers.values()) * n / tracer.wall_s,
        "trace.overhead_ratio": (
            steady_rate(p.spans / p.timed_s for p in untraced)
            / steady_rate(p.spans / p.timed_s for p in traced)),
    }
    out["sim.us_per_event"] = per(out["sim.self_s"], out["sim.events"])
    out["kernel.us_per_syscall"] = per(out["kernel.self_s"],
                                       out["kernel.syscalls"])
    out["agent.us_per_event"] = per(out["agent.self_s"],
                                    out["agent.events"])
    out["server.store.us_per_span"] = per(out["server.store.self_s"],
                                          ingested)
    out["server.streaming.us_per_span"] = per(
        out["server.streaming.self_s"], out["core.export.spans"])
    out["core.export.us_per_span"] = per(out["core.export.self_s"],
                                         out["core.export.spans"])
    out["server.assembler.us_per_query"] = per(
        out["server.assembler.self_s"], out["server.assembler.queries"])
    out.update(diagnostics(untraced))
    return out


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            *, scale: float = 1.0, out_dir=None) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, detail)``.

    *result* is the driver's record (``correct``, ``attempted``,
    ``failed``, ``metrics``); *detail* carries what does not fit there:
    the sim digest, pass count, host facts, the problems found, and on
    an untraced run the workload-specific diagnostics.
    """
    spec = load_spec()
    calib_s = calibrate()
    # A traced run reports no setup_s: it sets up once.
    workload, setup_s = set_up(
        WORKLOADS[workload_name], seed, scale,
        *((1, 0.0) if trace else (SETUP_MIN_REPEATS, SETUP_BUDGET_S)))
    detail = {
        "workload": workload_name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "host.calib_s": calib_s,
    }
    if trace:
        untraced = run_passes(workload, seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, seconds * (1 - UNTRACED_SHARE),
                                tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        values = per_layer(tracer, traced, untraced, calib_s)
        wanted = spec["per_layer"]
        out_dir = Path(out_dir or DEFAULT_OUT)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{workload_name}-{seed}.json"
        tracer.dump(trace_file)
        detail["trace_file"] = str(trace_file)
        ranked = sorted(tracer.layer_self_s().items(),
                        key=lambda item: -item[1])
        detail["top_layers"] = [name for name, _self in ranked[:3]]
    else:
        passes = run_passes(workload, seconds)
        values = end_to_end(passes, setup_s)
        wanted = spec["end_to_end"]
        units = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer"]}
        detail["diagnostics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in diagnostics(passes).items()}
    problems = [problem for p in passes for problem in p.problems]
    digests = {sim_digest(p.sim) for p in passes}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different sim digests in one run")
    detail.update(passes=len(passes), sim=passes[0].sim,
                  digest=sim_digest(passes[0].sim), problems=problems)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    return result, detail


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), the driver's way."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
