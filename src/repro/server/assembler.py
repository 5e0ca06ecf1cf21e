"""Trace assembling (Algorithm 1) and the parent-rule table.

Phase 1 — span search: the paper iterates, starting from a user-chosen
span, accumulating every association key of the current span set
(systrace_id, pseudo-thread id, X-Request-ID, per-flow TCP sequence,
third-party trace id) and re-querying the database until the set stops
growing.  That fixed point is a connected component of the association
graph, which the span store maintains incrementally in one union-find
forest, so the assembler reads it out with one ``find``; the iterative
search itself lives in :mod:`repro.server.reference`, the oracle the
property tests and Fig 15 compare against.

Phase 2 — parent assignment: a rule table keyed on collection location
(client/server side), span kind, timing, and message identity.  The paper
describes 16 rules; ours, R1–R11, are documented on the functions that
apply them.  One deliberate deviation, recorded in DESIGN.md: the
paper's §3.3.2 text sets the *server* span as parent of the matching
client span, which inverts the enclosure relation of Figure 1; we parent
the server span under the client span (the client span strictly
encloses it in time), matching the figure and the OSS system.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.span import (CANONICAL_ORDER, MESSAGING_PROTOCOLS, Span,
                             SpanKind, SpanSide, Trace)
from repro.server.database import SpanStore

#: Slack allowed when comparing intervals across hosts (clock skew &
#: capture-position effects), seconds.
ENCLOSURE_SLACK = 1e-6

#: Span kinds built from the eBPF hooks: what client/server rules link.
EBPF_KINDS = (SpanKind.SYSCALL, SpanKind.UPROBE)

_PATH_INDEX = attrgetter("path_index")


class TraceAssembler:
    """Assembles traces from the span store on demand.

    The *store* is the server's one :class:`repro.server.sharding.
    ShardedSpanStore` (or a bare :class:`SpanStore`): the assembler
    needs ``component_key`` and ``component_spans`` — one ``find`` in
    the forest, then the component's rows out of the id map.

    Parent assignment is memoized per root, keyed by the component's
    size and the ablation switches: the forest only grows, so ``(root,
    size)`` names one membership.  A segment drop replaces
    ``store.graph``, and the whole memo goes with it.
    """

    def __init__(self, store: "SpanStore",
                 enable_queue_relay: bool = True,
                 enable_x_request_id: bool = True):
        self.store = store
        #: Ablation switches (benchmarks/test_ablations.py).
        self.enable_queue_relay = enable_queue_relay
        self.enable_x_request_id = enable_x_request_id
        #: root → ``(size, switches, ordered spans, their parent ids)``,
        #: valid for the forest in ``_graph``.
        self._memo: dict[int, tuple] = {}
        self._graph = store.graph

    def assemble(self, start_span_id: int) -> Trace:
        """The trace containing *start_span_id*: read its component out
        of the store's union-find, set parents, sort.  A memo hit writes
        the parents found then back onto the spans instead (the push
        path may have re-parented a fragment of them since)."""
        store = self.store
        root, size = store.component_key(start_span_id)
        if store.graph is not self._graph:
            self._graph = store.graph
            self._memo = {}
        switches = (self.enable_queue_relay, self.enable_x_request_id)
        hit = self._memo.get(root)
        if hit is not None and hit[0] == size and hit[1] == switches:
            ordered = hit[2]
            for span, parent_id in zip(ordered, hit[3]):
                span.parent_id = parent_id
            return Trace._from_ordered(list(ordered))
        ordered = assign_parents(store.component_spans(start_span_id),
                                 enable_queue_relay=switches[0],
                                 enable_x_request_id=switches[1])
        self._memo[root] = (size, switches, tuple(ordered),
                            [span.parent_id for span in ordered])
        return Trace._from_ordered(ordered)


def build_trace(spans: list[Span], **rule_switches: bool) -> Trace:
    """Component → :class:`Trace`, for every collection path (pull, push,
    iterative reference): apply the parent rules — *rule_switches* are
    :func:`assign_parents`' ablation switches — and adopt the canonical
    order they return, so no path sorts a trace twice."""
    return Trace._from_ordered(assign_parents(spans, **rule_switches))


def assign_parents(spans: list[Span], *, enable_queue_relay: bool = True,
                   enable_x_request_id: bool = True) -> list[Span]:
    """Apply the parent-rule table to a span set, in priority order.

    Every rule that links across association axes guards against
    introducing a cycle by walking the candidate parent's ancestor chain
    (:func:`_creates_cycle`): the chain rules may already have parented
    the candidate — possibly through intermediate network spans — under
    the very span being linked.  The spans are sorted once into
    canonical ``(start_time, span_id)`` order and every rule consumes
    it — "the earliest span that …" is the first one a rule sees — so
    the outcome is independent of input order: one pass over it resets
    the parents and builds every table the rules read, and a rule with
    no candidate in the trace is skipped.  Returns the ordered list:
    what :class:`Trace` holds, with no second sort.
    """
    ordered = sorted(spans, key=CANONICAL_ORDER)
    by_id: dict[int, Span] = {}
    #: message key → [first eBPF client, first eBPF server, network spans]
    groups: dict[tuple, list] = {}
    systrace_servers: dict[int, Span] = {}
    xreq_servers: dict[tuple, Span] = {}
    publishes: dict[tuple, Span] = {}
    clients: list[Span] = []   # client-side eBPF spans
    relays: list[Span] = []    # client-side queue-relay spans
    app_spans: list[Span] = []
    server_side = SpanSide.SERVER
    client_side = SpanSide.CLIENT
    network_side = SpanSide.NETWORK
    app_kind = SpanKind.APP
    for span in ordered:
        span.parent_id = None
        by_id[span.span_id] = span
        side = span.side
        kind = span.kind
        flow = span.flow_key
        if flow is not None and span.req_tcp_seq is not None:
            key = (flow, span.req_tcp_seq)
            group = groups.get(key)
            if group is None:
                group = groups[key] = [None, None, []]
            if side is network_side:
                group[2].append(span)
            elif kind in EBPF_KINDS:
                if side is client_side:
                    if group[0] is None:
                        group[0] = span
                elif side is server_side and group[1] is None:
                    group[1] = span
        if side is server_side:
            value = span.systrace_id
            if value is not None:
                systrace_servers.setdefault(value, span)
            value = span.x_request_id
            if value:
                xreq_servers.setdefault((span.host, span.pid, value), span)
            if (span.message_id is not None
                    and span.protocol in MESSAGING_PROTOCOLS):
                publishes.setdefault(
                    (span.protocol, span.resource, span.message_id), span)
        elif side is client_side:
            if kind in EBPF_KINDS:
                clients.append(span)
            if (span.message_id is not None
                    and span.protocol in MESSAGING_PROTOCOLS):
                relays.append(span)
        if kind is app_kind:
            app_spans.append(span)
    _chain_message_groups(groups)
    if app_spans:
        _apply_app_rules(ordered, app_spans, clients, by_id)
    _apply_intra_component_rules(clients, systrace_servers,
                                 xreq_servers if enable_x_request_id
                                 else None, by_id)
    if enable_queue_relay and publishes and relays:
        _apply_queue_relay_rules(relays, publishes, by_id)
    return ordered


def _creates_cycle(span: Span, parent: Span,
                   by_id: dict[int, Span]) -> bool:
    """Whether setting ``span.parent_id = parent.span_id`` would close a
    cycle, i.e. *span* is already an ancestor of *parent*.

    The predecessor guard (``parent.parent_id != span.span_id``) only
    caught two-cycles; the chain rules can put the candidate parent
    under *span* through intermediate network spans, closing longer
    cycles, so the whole ancestor chain is walked — for at most
    ``len(by_id)`` hops: a longer walk is a cycle elsewhere; don't join.
    """
    target = span.span_id
    lookup = by_id.get
    current: Optional[Span] = parent
    for _hop in range(len(by_id) + 1):
        if current is None:
            return False
        if current.span_id == target:
            return True
        current = lookup(current.parent_id)  # roots: by_id has no None key
    return False


def _chain_message_groups(groups: dict[tuple, list]) -> None:
    """Rules 1–4: inter-component chaining along the network path.

    Spans observing the *same message* on the same flow group under
    (flow, request first-byte sequence): L2/3/4 forwarding preserves it,
    so the client span, every capture-point span, and the server span of
    one request/response exchange share it.  Within one message group:
      R1  first network span          ← client-side eBPF span
      R2  network span at path index i ← network span at index i-1
      R3  server-side eBPF span        ← last network span
      R4  server-side eBPF span        ← client-side eBPF span (no taps)
    Each group is ``[client, server, nets]`` as :func:`assign_parents`
    collected it in canonical order: the first eBPF client/server span
    (the earliest, smallest id; or None) and the network spans.
    """
    for client, server, nets in groups.values():
        if (server is not None and client is not None
                and server.resp_tcp_seq is not None
                and client.resp_tcp_seq is not None
                and server.resp_tcp_seq != client.resp_tcp_seq):
            # Same request seq but different response seq: not the
            # same exchange; refuse to chain.
            server = None
        if len(nets) > 1:
            # Only a group that crossed several capture points sorts,
            # those few spans; stable, so ties stay in canonical order.
            nets.sort(key=_PATH_INDEX)  # lint: ok
        previous = client
        for net in nets:
            # A span listed twice is chained once.
            if previous is not None and net.parent_id is None:
                net.parent_id = previous.span_id
            previous = net
        if server is not None and previous is not None:
            server.parent_id = previous.span_id


def _apply_app_rules(spans: list[Span], app_spans: list[Span],
                     clients: list[Span], by_id: dict[int, Span]) -> None:
    """Rules 5–7: third-party (OpenTelemetry-style) span integration.

      R5  app span ← app span named by its explicit parent span id
      R6  app span ← server-side eBPF span on the same host+pid whose
          interval encloses it (tightest such span)
      R7  client-side eBPF span ← app span on the same host+pid whose
          interval encloses it (tightest), when no explicit link exists
    """
    by_otel_id = {span.otel_span_id: span for span in app_spans
                  if span.otel_span_id}
    for span in app_spans:
        if span.parent_id is not None:
            continue
        if span.otel_parent_span_id:
            parent = by_otel_id.get(span.otel_parent_span_id)
            if parent is not None and parent is not span \
                    and not _creates_cycle(span, parent, by_id):
                span.parent_id = parent.span_id
                continue
        enclosing = _tightest_enclosing(
            span, spans,
            lambda candidate: (candidate.side is SpanSide.SERVER
                               and candidate.kind in EBPF_KINDS
                               and candidate.host == span.host
                               and candidate.pid == span.pid))
        if enclosing is not None \
                and not _creates_cycle(span, enclosing, by_id):
            span.parent_id = enclosing.span_id
    for span in clients:
        if span.parent_id is not None:
            continue
        enclosing = _tightest_enclosing(
            span, app_spans,
            lambda candidate: (candidate.host == span.host
                               and candidate.pid == span.pid))
        if enclosing is not None \
                and not _creates_cycle(span, enclosing, by_id):
            span.parent_id = enclosing.span_id


def _apply_intra_component_rules(
        clients: list[Span], systrace_servers: dict[int, Span],
        xreq_servers: Optional[dict[tuple, Span]],
        by_id: dict[int, Span]) -> None:
    """Rules 8–10: intra-component association.

      R8  client-side eBPF span ← server-side span with the same
          systrace_id (thread/pseudo-thread association, Fig 7(a))
      R9  client-side eBPF span ← server-side span with the same
          X-Request-ID on the same host+pid (cross-thread association);
          *xreq_servers* is None when the ablation switch is off
      R10 server-side eBPF span with no inter-component parent stays a
          root (external caller)
    Of several server spans carrying one key the canonically first is
    the parent: the tables are ``setdefault`` over the canonical order.
    """
    for span in clients:
        if span.parent_id is not None:
            continue
        parent = None
        if span.systrace_id is not None:
            parent = systrace_servers.get(span.systrace_id)
        if (parent is None and span.x_request_id
                and xreq_servers is not None):
            parent = xreq_servers.get(
                (span.host, span.pid, span.x_request_id))
        if parent is not None and not _creates_cycle(span, parent, by_id):
            # Cycle guard: the chain rules may already have put the
            # server span under this client span, directly or through
            # intermediate network spans.
            span.parent_id = parent.span_id


def _apply_queue_relay_rules(relays: list[Span],
                             publishes: dict[tuple, Span],
                             by_id: dict[int, Span]) -> None:
    """Rule 11 (beyond-paper extension): message-queue relay causality.

    §3.3.2 notes DeepFlow "incapable of managing scenarios such as
    message queues" and defers them to future work; this rule closes the
    gap for brokers that carry the producer's message identifier through
    to the consumer delivery (AMQP delivery tags, Kafka offsets, MQTT
    packet ids):

      R11  broker-side deliver/push span (client side, the broker
           pushing to a consumer) ← broker-side publish span (server
           side, the producer's message arriving) with the same
           (protocol, resource, message id) and an earlier start —
           the canonically first such publish.

    *relays* are the client-side spans carrying a queue message key,
    *publishes* the server-side table of the same keys.
    """
    for span in relays:
        if span.parent_id is not None:
            continue
        publish = publishes.get(
            (span.protocol, span.resource, span.message_id))
        if (publish is not None
                and publish.start_time <= span.start_time
                and not _creates_cycle(span, publish, by_id)):
            span.parent_id = publish.span_id


def _tightest_enclosing(span: Span, candidates: list[Span],
                        predicate) -> Optional[Span]:
    best: Optional[Span] = None
    for candidate in candidates:
        if candidate is span or not predicate(candidate):
            continue
        if not candidate.encloses(span, slack=ENCLOSURE_SLACK):
            continue
        if best is None or ((candidate.duration, candidate.span_id)
                            < (best.duration, best.span_id)):
            best = candidate
    return best
