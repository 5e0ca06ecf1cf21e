"""Hot-path discipline checker.

The ingest pipeline — agent event dispatch, ``SpanStore.insert_many``, and
``TraceGraphIndex`` maintenance — runs once per traced message, so
per-event waste there is a span-rate regression (the exact class of
problem an earlier optimization pass hand-fixed: un-hoisted attribute
loads, per-event temporaries, O(n) rescans inside O(n) loops).  This
checker walks the call-graph closure of the hot seeds and flags, inside
loop bodies only:

* ``hp-alloc-in-loop`` (warn) — constructor calls (``list()``,
  ``dict()``, ``set()``, ``tuple()``, ``frozenset()``, ``sorted()``),
  comprehensions, and f-strings.  Literal displays (``[a, b]``) are
  allowed — the store's key commit allocates one list on a posting's
  first collision, which is the design, not waste.  Allocations
  inside ``raise`` statements are error paths and exempt.
* ``hp-attr-in-loop`` (warn) — a ``self``-rooted attribute chain of
  depth ≥ 2 (``self.a.b``), or the same ``self.x`` loaded twice in one
  loop body: both are method-call/dict-lookup work the surrounding
  code already hoists into locals.
* ``hp-rescan-in-loop`` (warn) — ``sorted(...)``, ``.sort()``,
  ``.index()``, or ``insort`` inside a loop: an O(n) pass per event.

A second, stricter contract covers the per-event and per-span guards
(:data:`ALLOC_FREE_SEEDS`): the per-record sampler decision, the
firing-time token-bucket check, and the per-poll tier check run on
*every* kernel event precisely when the agent is already drowning, and
the store's insert, the server's enrichment and the self-metrics
increments on every ingested span, so their whole bodies — not just
loop bodies — must be allocation-free.  ``hp-alloc-in-guard`` (error)
flags constructor calls, comprehensions, f-strings, and list/set/dict
literal displays anywhere inside them; the once-per-socket,
once-per-transition and once-per-endpoint slow paths they delegate to
are deliberately not listed.

A third contract covers the front half of the chain
(:data:`PER_EVENT_SEEDS`): the engine's step, the process resume path,
the two generic syscall paths, hook dispatch, the perf ring and segment
transmission have no loop of their own — the simulator's run loop *is*
their loop, once per event / syscall / firing / segment.
``hp-make-work-per-event`` (warn) flags, anywhere in those bodies
outside ``raise`` statements, what used to make them slow: a ``lambda``
or nested function (a closure per event), an f-string or comprehension,
and a record class built with keyword arguments (build it positionally,
in field order).  They also seed the loop-body closure above.

A fourth rule runs over the whole body of every function in the hot
closure: ``hp-eager-default`` (warn) flags
``mapping.setdefault(key, Ctor())`` and ``mapping.get(key, Ctor())``,
and the same with a list, dict or set display (``{}``, ``[]``,
``{a}``) as the default — a default built on every call whether or not
the key is present (the agent's session table built and threw away a
deque and two ordered dicts per message for forty sockets; the kernel's
fd lookup an empty dict per syscall).  Constants such as ``()`` are
fine; the fix is get, test for ``None``, build on the miss.

Dynamic dispatch hides the agent's handler table from the call graph,
so the seed list names the handler methods explicitly; module-level
entry points (parent assignment) are seeded by qualified name.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.analyze.checkers import Checker, register
from tools.analyze.findings import Finding
from tools.analyze.project import FunctionInfo, Project

CHECKER_NAME = "hot-path"

#: class name → method-name predicates seeding the hot closure.
HOT_SEEDS: dict[str, tuple[str, ...]] = {
    # Ingest, the push path's per-batch commit, and the pull read path:
    # a trace query is one forest find and one intersection with the id
    # map (or, on a memo hit, one find and a parent write-back), and a
    # range read one slice per overlapping time segment, so a per-member
    # probe or a per-segment sort there is a query-rate regression.  The
    # slowest-span read reaches the time commit, whose per-entry maxima
    # update in ``_extend_run`` is a loop body of this closure.
    # ShardedSpanStore binds the same implementations; its names stay
    # seeded for any it defines itself.
    "SpanStore": ("insert_many", "take_component_events",
                  "component_spans", "component_ids", "component_key",
                  "span_list", "slowest_span"),
    "ShardedSpanStore": ("insert_many", "merge_boundaries",
                         "take_component_events", "component_spans",
                         "component_ids", "component_key", "span_list",
                         "slowest_span"),
    "TraceGraphIndex": ("link_batch", "component_key"),
    "TraceAssembler": ("assemble",),
    "DeepFlowAgent": ("poll", "_process_event", "_resolve_handler",
                      "_process_coroutine_event", "_process_close_event",
                      "_process_uprobe_record", "_process_syscall_record",
                      "_process_degraded_record", "_ingest_message",
                      "_emit_session", "_build_span", "_finalize_span",
                      "_on_enter", "_on_exit"),
    # The agent calls the two typed entries directly; add() is the same
    # pair behind the public one-message entry.
    "SessionAggregator": ("add", "_add_request", "_match_response",
                          "_pair", "_state"),
    "AssociationTracker": ("observe", "assign_systrace", "_advance"),
    # The continuous assembler's push entry runs per ingest batch with
    # per-span and per-link-event loops; parent assembly (which sorts)
    # is deliberately split into finalize_pending, off this closure.
    "ContinuousAssembler": ("on_spans",),
    # Enrichment runs once per ingested span: one memo lookup that
    # hands the span its endpoint's shared tag map (a dict.update for a
    # span carrying tags of its own), where it used to rebuild the
    # decoded tag dict.
    # trace() is the query entry: with no self-defined label registered
    # it copies nothing, and with one it copies only the labelled spans.
    "DeepFlowServer": ("_enrich", "trace"),
    # The push path's export of every retired trace: its closure is the
    # OTLP text encoder (``trace_to_otlp_json`` → ``_span_json`` per
    # span → ``_key_order`` / ``_loose_key_order`` → ``_head``: fragments
    # concatenated, no dict per attribute).  The schema decoder is not
    # in it: payloads are checked where they are read, off this path.
    "OtlpStreamExporter": ("export_trace",),
}

#: Module-level functions seeding the hot closure, by qualified name.
#: ``assign_parents`` is shared by the pull path (every ``trace()``) and
#: the push path (every retired trace): its rules loop over the spans
#: of one trace in canonical order, so a ``sorted()`` or comprehension
#: per message group there taxes every query and every export.
HOT_FUNCTION_SEEDS: tuple[str, ...] = (
    "repro.server.assembler.assign_parents",
)

#: class name → methods whose ENTIRE body must be allocation-free: the
#: overload-protection fast paths, which run per kernel event exactly
#: when the agent is overloaded.
ALLOC_FREE_SEEDS: dict[str, tuple[str, ...]] = {
    "TokenBucket": ("allow",),
    "HeadSampler": ("admit",),
    "OverloadController": ("tick",),
    # Ingest runs its duplicate and time-segment checks once per span;
    # the whole body stays allocation-free (the segment drop it may
    # call, at most once per window, lives in the cold _expire helper).
    "SpanStore": ("insert_many",),
    # Enrichment gives a span a tag map built once per endpoint, tenant
    # and registration (TagRegistry.span_tags, the cold miss): a dict
    # built here — a ``{**tags, **decoded}`` rebuild — is one per span
    # the store keeps.
    "DeepFlowServer": ("_enrich",),
    # Pipeline self-metrics increments are sprinkled through every
    # ingest stage (agent poll/ship, store ingest, server ingest,
    # continuous assembly), so an allocation creeping into one taxes
    # the whole pipeline at span rate.
    "Counter": ("inc",),
    "Gauge": ("set",),
    "Histogram": ("observe",),
}

#: class name → methods that run once per simulated event, syscall,
#: hook firing or segment: checked over their WHOLE body, and seeds of
#: the loop-body closure like :data:`HOT_SEEDS`.
PER_EVENT_SEEDS: dict[str, tuple[str, ...]] = {
    "Simulator": ("step", "call_soon", "_schedule"),
    "Process": ("_step", "_step_throw", "_wait_on", "_resume", "_wake"),
    "Kernel": ("_sys_ingress", "_sys_egress"),
    "HookRegistry": ("fire",),
    "PerfBuffer": ("submit",),
    "Flow": ("send", "_transmit"),
    # Once per message and once per session: a keyword-built Message or
    # Span here is the make-work the agent rewrite removed.
    "DeepFlowAgent": ("_ingest_message", "_build_span"),
}

ALLOC_CALLS = {"list", "dict", "set", "tuple", "frozenset", "sorted"}
ALLOC_DISPLAYS = (ast.List, ast.Set, ast.Dict)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                  ast.GeneratorExp)
RESCAN_METHODS = {"sort", "index"}


def hot_functions(project: Project) -> dict[str, FunctionInfo]:
    """qualname → function for the hot-seed call-graph closure."""
    seeds: set[str] = {qualname for qualname in HOT_FUNCTION_SEEDS
                       if qualname in project.functions}
    for cls in project.classes.values():
        wanted = (HOT_SEEDS.get(cls.name, ())
                  + PER_EVENT_SEEDS.get(cls.name, ()))
        for method_name in wanted:
            method = cls.methods.get(method_name)
            if method is not None:
                seeds.add(method.qualname)
    closure = project.reachable_from(seeds)
    return {q: project.functions[q] for q in closure
            if q in project.functions}


def alloc_free_functions(project: Project) -> dict[str, FunctionInfo]:
    """qualname → function for the allocation-free guard seeds.

    No call-graph closure here: the guards delegate their cold paths
    (socket open, tier transition) to helpers that allocate by design,
    so only the listed bodies themselves carry the contract.
    """
    return _seeded_bodies(project, ALLOC_FREE_SEEDS)


def per_event_functions(project: Project) -> dict[str, FunctionInfo]:
    """qualname → function for the per-event seeds (no closure: what
    they call is either seeded itself or covered by the loop rules)."""
    return _seeded_bodies(project, PER_EVENT_SEEDS)


def _seeded_bodies(project: Project, table: dict[str, tuple[str, ...]]
                   ) -> dict[str, FunctionInfo]:
    out: dict[str, FunctionInfo] = {}
    for cls in project.classes.values():
        wanted = table.get(cls.name)
        if not wanted:
            continue
        for method_name in wanted:
            method = cls.methods.get(method_name)
            if method is not None and method.qualname in project.functions:
                out[method.qualname] = project.functions[method.qualname]
    return out


def _loop_bodies(func_node: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every loop body statement list in *func_node*, skipping nested
    function definitions (they have their own cost model)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node.body
        stack.extend(ast.iter_child_nodes(node))


def _self_chain(node: ast.Attribute) -> Optional[tuple[str, ...]]:
    """("self", "a", "b") for a self-rooted load chain, else None."""
    parts: list[str] = [node.attr]
    obj = node.value
    while isinstance(obj, ast.Attribute):
        parts.append(obj.attr)
        obj = obj.value
    if isinstance(obj, ast.Name) and obj.id == "self":
        parts.append("self")
        return tuple(reversed(parts))
    return None


def _walk_body(body: list[ast.stmt],
               skip_raise: bool = True) -> Iterator[ast.AST]:
    """Walk expressions in *body* without descending into nested loops'
    own reporting scope problems — nested loops are revisited by
    :func:`_loop_bodies`, but their nodes still execute inside this
    loop, so they are included here; nested functions and ``raise``
    payloads are not."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if skip_raise and isinstance(node, ast.Raise):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class HotPathChecker(Checker):
    name = CHECKER_NAME
    description = ("no per-event allocations, repeated attribute loads, "
                   "or O(n) rescans in ingest-path loops")

    def run(self, project: Project) -> Iterator[Finding]:
        for qualname, info in sorted(hot_functions(project).items()):
            path = info.module.rel_display(project.repo_root)
            reported: set[int] = set()
            for body in _loop_bodies(info.node):
                yield from self._check_body(body, path, qualname,
                                            reported)
            yield from self._check_eager_defaults(info.node.body, path,
                                                  qualname)
        for qualname, info in sorted(alloc_free_functions(project).items()):
            path = info.module.rel_display(project.repo_root)
            yield from self._check_guard(info.node.body, path, qualname)
        for qualname, info in sorted(per_event_functions(project).items()):
            path = info.module.rel_display(project.repo_root)
            yield from self._check_per_event(info.node.body, path, qualname)

    def _check_per_event(self, body: list[ast.stmt], path: str,
                         qualname: str) -> Iterator[Finding]:
        """Flag per-event make-work anywhere in a body the simulator's
        run loop executes once per event / syscall / firing / segment."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                continue
            kind = None
            if isinstance(node, (ast.Lambda, ast.FunctionDef)):
                kind = "closure"
            elif isinstance(node, ast.JoinedStr):
                kind = "f-string"
            elif isinstance(node, COMPREHENSIONS):
                kind = "comprehension"
            elif (isinstance(node, ast.Call) and node.keywords
                    and isinstance(node.func, ast.Name)
                    and node.func.id[:1].isupper()):
                kind = f"{node.func.id}(...) built with keywords"
            if kind is not None:
                yield Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-make-work-per-event", severity="warn",
                    function=qualname,
                    message=(f"{kind} in a body that runs once per "
                             f"simulated event — schedule fn + args, "
                             f"precompute names, build records "
                             f"positionally"))
            if kind != "closure":
                stack.extend(ast.iter_child_nodes(node))

    def _check_eager_defaults(self, body: list[ast.stmt], path: str,
                              qualname: str) -> Iterator[Finding]:
        """Flag ``.setdefault(key, Ctor())`` / ``.get(key, Ctor())``,
        or a list, dict or set display as the default, anywhere in a hot
        body: the default is built on every call."""
        for node in _walk_body(body):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("setdefault", "get")
                    and len(node.args) == 2
                    and isinstance(node.args[1],
                                   (ast.Call, *ALLOC_DISPLAYS))):
                yield Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-eager-default", severity="warn",
                    function=qualname,
                    message=(f".{node.func.attr}(key, "
                             f"{ast.unparse(node.args[1])}) builds its "
                             f"default on every call, hit or miss — get, "
                             f"test for None, build on the miss"))

    def _check_guard(self, body: list[ast.stmt], path: str,
                     qualname: str) -> Iterator[Finding]:
        """Flag ANY allocation in an allocation-free body — these run
        per kernel event exactly when the agent is drowning, or per
        ingested span, so even the literal displays the loop rule
        tolerates are disallowed."""
        for node in _walk_body(body):
            kind = None
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ALLOC_CALLS:
                kind = f"{node.func.id}() call"
            elif isinstance(node, COMPREHENSIONS):
                kind = "comprehension"
            elif isinstance(node, ast.JoinedStr):
                kind = "f-string"
            elif isinstance(node, ALLOC_DISPLAYS):
                ctx = getattr(node, "ctx", None)
                if ctx is None or isinstance(ctx, ast.Load):
                    kind = "literal display"
            if kind is not None:
                yield Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-alloc-in-guard", severity="error",
                    function=qualname,
                    message=(f"{kind} inside an allocation-free body — "
                             f"it runs per kernel event under overload "
                             f"or per ingested span; move it to the "
                             f"cold path"))

    def _check_body(self, body: list[ast.stmt], path: str,
                    qualname: str,
                    reported: set[int]) -> Iterator[Finding]:
        self_loads: dict[tuple[str, ...], list[ast.Attribute]] = {}
        for node in _walk_body(body):
            if id(node) in reported:
                continue
            if isinstance(node, ast.Call):
                finding = self._check_call(node, path, qualname)
                if finding is not None:
                    reported.add(id(node))
                    yield finding
            elif isinstance(node, COMPREHENSIONS + (ast.JoinedStr,)):
                reported.add(id(node))
                kind = ("f-string" if isinstance(node, ast.JoinedStr)
                        else "comprehension")
                yield Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-alloc-in-loop", severity="warn",
                    function=qualname,
                    message=(f"{kind} allocates per loop iteration on "
                             f"the hot path — build outside the loop"))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                chain = _self_chain(node)
                if chain is None:
                    continue
                if len(chain) > 2 and id(node) not in reported:
                    reported.add(id(node))
                    yield Finding(
                        path=path, line=node.lineno, checker=self.name,
                        rule="hp-attr-in-loop", severity="warn",
                        function=qualname,
                        message=(f"attribute chain "
                                 f"{'.'.join(chain)} inside a hot loop "
                                 f"— hoist it into a local before the "
                                 f"loop"))
                elif len(chain) == 2:
                    self_loads.setdefault(chain, []).append(node)
        for chain, nodes in sorted(self_loads.items()):
            if len(nodes) < 2:
                continue
            first = min(nodes, key=lambda n: n.lineno)
            if id(first) in reported:
                continue
            reported.add(id(first))
            for node in nodes:
                reported.add(id(node))
            yield Finding(
                path=path, line=first.lineno, checker=self.name,
                rule="hp-attr-in-loop", severity="warn",
                function=qualname,
                message=(f"{'.'.join(chain)} loaded {len(nodes)}× in one "
                         f"hot loop body — hoist it into a local"))

    def _check_call(self, node: ast.Call, path: str,
                    qualname: str) -> Optional[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                return Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-rescan-in-loop", severity="warn",
                    function=qualname,
                    message="sorted() inside a hot loop — an O(n log n) "
                            "rescan per event; maintain order "
                            "incrementally")
            if func.id == "insort":
                return Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-rescan-in-loop", severity="warn",
                    function=qualname,
                    message="insort() inside a hot loop — O(n) list "
                            "shifting per event")
            if func.id in ALLOC_CALLS:
                return Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-alloc-in-loop", severity="warn",
                    function=qualname,
                    message=(f"{func.id}() allocates per loop iteration "
                             f"on the hot path — reuse or hoist it"))
        elif isinstance(func, ast.Attribute):
            if func.attr in RESCAN_METHODS:
                return Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-rescan-in-loop", severity="warn",
                    function=qualname,
                    message=(f".{func.attr}() inside a hot loop — an "
                             f"O(n) rescan per event"))
            if func.attr == "insort":
                return Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="hp-rescan-in-loop", severity="warn",
                    function=qualname,
                    message="insort inside a hot loop — O(n) list "
                            "shifting per event")
        return None
