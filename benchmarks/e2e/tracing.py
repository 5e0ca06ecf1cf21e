"""Per-layer tracing applied from the benchmark's side of the fence.

``Tracer.install()`` patches, at class level, the public entry points of
each layer (nothing under ``src/`` changes); ``uninstall()`` restores
them.  Every wrapped call is a span: name, start, end and the span that
was open when it started (its parent).  Spans are not kept one by one —
a traced pass makes a few hundred thousand — but aggregated in memory by
``(parent, name)`` edge: calls, inclusive time, and self time (inclusive
minus the part covered by child spans).

Three kinds of wrapper:

* plain methods — one span per call;
* generator-returning methods (the kernel's syscall ABIs) and every
  generator handed to ``Simulator.spawn`` — a delegating proxy times
  *each resume* as one span, so the sim time a process spends suspended
  is never counted as host time;
* ``tracer.span(name)`` — a context manager for the one place where the
  benchmark itself stands in for a layer (the replay's ring feeding loop).

Wrappers are exception-transparent (``try/finally`` only): a wrapper
that raised inside a hook program would be swallowed by the kernel's
fault containment and silently yield zero spans.

Attribution rules that follow from the nesting: ``apps`` is the resume
time of processes defined under ``repro.apps`` outside any kernel call;
``sim`` is what remains of ``Simulator.step`` once every process resume
is subtracted (heap, events, timeouts, process bookkeeping).
"""

from __future__ import annotations

import json
from time import perf_counter

#: span name → layer.  Layers are the repo's modules; ``server`` is split
#: the way ISSUE 13 reports it.  Names not listed fall under "harness".
SPAN_LAYER = {
    "sim.step": "sim",
    "sim.run": "sim",
    "sim.run_process": "sim",
    "sim.process": "sim",
    "apps.process": "apps",
    "kernel.syscall": "kernel",
    "kernel.connect": "kernel",
    "kernel.accept": "kernel",
    "kernel.close": "kernel",
    "kernel.process": "kernel",
    "kernel.ring": "kernel",
    "kernel.hooks.fire": "kernel.hooks",
    "network.send": "network",
    "network.establish": "network",
    "network.process": "network",
    "agent.poll": "agent",
    "agent.ship": "agent",
    "agent.flush": "agent",
    "agent.process": "agent",
    "protocols.parse": "protocols",
    "protocols.classify": "protocols",
    "server.ingest": "server.ingest",
    "server.trace": "server.assembler",
    "server.assembler.assemble": "server.assembler",
    "server.span_list": "server.store",
    "server.slowest_span": "server.store",
    "server.store.insert_many": "server.store",
    "server.store.flush": "server.store",
    "server.store.commit_keys": "server.store",
    "server.store.seal_shard": "server.store",
    "server.store.merge_boundaries": "server.store",
    "server.store.take_component_events": "server.store",
    "server.store.component_spans": "server.store",
    "server.store.span_list": "server.store",
    "server.streaming.on_spans": "server.streaming",
    "server.streaming.finalize_pending": "server.streaming",
    "server.streaming.tick": "server.streaming",
    "server.streaming.drain": "server.streaming",
    "server.process": "server.streaming",
    "core.export.export_trace": "core.export",
}

#: Deferred index maintenance — what a write-side deferral moves cost into.
FLUSH_SPANS = ("server.store.flush", "server.store.commit_keys",
               "server.store.seal_shard", "server.store.merge_boundaries")

#: Time-range reads (``span_list`` and the scan behind ``slowest_span``).
SPAN_LIST_SPANS = ("server.span_list", "server.slowest_span",
                   "server.store.span_list")


def layer_of(name: str) -> str:
    """The layer a span name reports under."""
    return SPAN_LAYER.get(name, "harness")


class _TimedGenerator:
    """Delegating generator proxy: every resume is one span."""

    def __init__(self, tracer: "Tracer", gen, name: str) -> None:
        self._tracer = tracer
        self._gen = gen
        self._name = name
        self.__name__ = getattr(gen, "__name__", name)

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc_info):
        return self._resume(self._gen.throw, *exc_info)

    def close(self):
        return self._gen.close()

    def _resume(self, step, *args):
        start = perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        name = self._name
        parent = stack[-1][1] if stack else ""
        frame = [0.0, name]
        stack.append(frame)
        try:
            return step(*args)
        finally:
            tracer._close(parent, name, frame, start)


class _BlockSpan:
    """``Tracer.span``: built once, entered once per loop iteration."""

    __slots__ = ("_tracer", "_name", "_parent", "_frame", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._start = perf_counter()
        stack = self._tracer._stack
        self._parent = stack[-1][1] if stack else ""
        self._frame = [0.0, self._name]
        stack.append(self._frame)

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._parent, self._name, self._frame,
                            self._start)


class Tracer:
    """Class-level patches plus the in-memory span aggregate."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[child_time, name]``.
        self._stack: list[list] = []
        #: (parent, name) → [calls, inclusive_s, self_s], current region.
        self._edges: dict[tuple[str, str], list] = {}
        #: the same, folded over every region ended so far.
        self.edges: dict[tuple[str, str], list] = {}
        self.wall_s = 0.0
        self.regions = 0
        self._patched: list[tuple[type, str, object]] = []

    # -- regions -----------------------------------------------------------

    def begin(self) -> None:
        """Start a timed region: drop whatever set-up recorded."""
        self._stack.clear()
        self._edges.clear()

    def end(self, wall_s: float) -> None:
        """Fold the region just measured (its wall time is *wall_s*)."""
        for key, (calls, inclusive, self_s) in self._edges.items():
            total = self.edges.setdefault(key, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += inclusive
            total[2] += self_s
        self.wall_s += wall_s
        self.regions += 1
        self.begin()

    # -- recording ---------------------------------------------------------

    def _close(self, parent: str, name: str, frame: list,
               start: float) -> None:
        # The wrappers read the clock first and this reads it first: the
        # bookkeeping on either side lands in the parent's self time,
        # and only for a span with no parent is it lost to coverage.
        elapsed = perf_counter() - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        edge = self._edges.get((parent, name))
        if edge is None:
            self._edges[(parent, name)] = edge = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += elapsed
        edge[2] += elapsed - frame[0]

    def span(self, name: str) -> "_BlockSpan":
        """A reusable (not re-entrant) context manager: one span per
        ``with`` around a block of the benchmark's own code."""
        return _BlockSpan(self, name)

    def _timed(self, fn, name: str):
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            start = perf_counter()
            parent = stack[-1][1] if stack else ""
            frame = [0.0, name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(parent, name, frame, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_generator(self, fn, name: str):
        def wrapper(*args, **kwargs):
            return _TimedGenerator(self, fn(*args, **kwargs), name)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_spawn(self, spawn):
        def wrapper(sim, gen, name=""):
            if not isinstance(gen, _TimedGenerator):
                gen = _TimedGenerator(self, gen, _process_span(gen))
            return spawn(sim, gen, name=name)

        wrapper.__wrapped__ = spawn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: type, attr: str, make, *args) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original, *args))

    def install(self) -> None:
        """Patch every layer's public entry points (class level)."""
        from repro.agent.agent import DeepFlowAgent
        from repro.core.export import OtlpStreamExporter
        from repro.kernel.ebpf import HookRegistry
        from repro.kernel.kernel import Kernel
        from repro.kernel.syscalls import ALL_ABIS
        from repro.network.transport import Flow, Network
        from repro.protocols.inference import ProtocolInferenceEngine
        from repro.server.assembler import TraceAssembler
        from repro.server.database import SpanStore
        from repro.server.server import DeepFlowServer
        from repro.server.sharding import ShardedSpanStore
        from repro.server.streaming import ContinuousAssembler
        from repro.sim.engine import Simulator

        if self._patched:
            raise RuntimeError("tracer already installed")
        timed, generator = self._timed, self._timed_generator
        for attr in ("step", "run", "run_process"):
            self._patch(Simulator, attr, timed, f"sim.{attr}")
        self._patch(Simulator, "spawn", self._timed_spawn)
        for abi in (*ALL_ABIS, "recv_abi", "send_abi"):
            self._patch(Kernel, abi, generator, "kernel.syscall")
        self._patch(Kernel, "connect", generator, "kernel.connect")
        self._patch(Kernel, "accept", generator, "kernel.accept")
        self._patch(Kernel, "close", timed, "kernel.close")
        self._patch(HookRegistry, "fire", timed, "kernel.hooks.fire")
        self._patch(Flow, "send", timed, "network.send")
        self._patch(Network, "establish", generator, "network.establish")
        for attr in ("poll", "ship", "flush"):
            self._patch(DeepFlowAgent, attr, timed, f"agent.{attr}")
        for attr in ("parse", "classify"):
            self._patch(ProtocolInferenceEngine, attr, timed,
                        f"protocols.{attr}")
        self._patch(DeepFlowServer, "ingest_spans", timed, "server.ingest")
        for attr in ("trace", "span_list", "slowest_span"):
            self._patch(DeepFlowServer, attr, timed, f"server.{attr}")
        for store in (SpanStore, ShardedSpanStore):
            for attr in ("insert_many", "flush", "take_component_events",
                         "component_spans", "span_list"):
                self._patch(store, attr, timed, f"server.store.{attr}")
        self._patch(SpanStore, "commit_keys", timed,
                    "server.store.commit_keys")
        for attr in ("seal_shard", "merge_boundaries"):
            self._patch(ShardedSpanStore, attr, timed,
                        f"server.store.{attr}")
        for attr in ("on_spans", "finalize_pending", "tick", "drain"):
            self._patch(ContinuousAssembler, attr, timed,
                        f"server.streaming.{attr}")
        self._patch(TraceAssembler, "assemble", timed,
                    "server.assembler.assemble")
        self._patch(OtlpStreamExporter, "export_trace", timed,
                    "core.export.export_trace")

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------

    def calls(self, name: str) -> int:
        """Spans recorded under *name* (resumes, for a generator)."""
        return sum(edge[0] for (_parent, span), edge in self.edges.items()
                   if span == name)

    def self_s(self, names) -> float:
        """Total self time of the spans named in *names*."""
        return sum(edge[2] for (_parent, span), edge in self.edges.items()
                   if span in names)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, over every region ended so far."""
        layers: dict[str, float] = {}
        for (_parent, name), edge in self.edges.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + edge[2]
        return layers

    def dump(self, path) -> None:
        """Write the aggregate as JSON (one row per parent→name edge)."""
        rows = [{"parent": parent, "name": name, "layer": layer_of(name),
                 "calls": edge[0], "inclusive_s": edge[1],
                 "self_s": edge[2]}
                for (parent, name), edge in sorted(self.edges.items())]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"regions": self.regions, "wall_s": self.wall_s,
                       "edges": rows}, handle, indent=1)


def _process_span(gen) -> str:
    """Span name for a spawned process: the ``repro`` package that
    defines its generator function, e.g. ``apps.process``."""
    code = getattr(gen, "gi_code", None)
    filename = code.co_filename if code is not None else ""
    _head, marker, tail = filename.rpartition("/repro/")
    if not marker or "/" not in tail:
        return "harness.process"
    return f"{tail.split('/', 1)[0]}.process"
