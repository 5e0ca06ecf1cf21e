"""The parent-rule table ``repro.server.assembler`` shipped before the
one-canonical-order rewrite, kept statement for statement as a test
oracle.

``assign_parents`` in ``src/`` sorts once and lets every rule consume
that order (first-seen picks, ``setdefault`` tables, a hop-bounded cycle
guard); this module still goes the long way round — two ``_pick`` list
comprehensions with ``min(key=lambda)`` and one ``sorted(key=lambda)``
per message group, a ``seen`` set per candidate edge — and
``tests/test_assembler_properties.py`` requires the two to produce the
same parent map.  Nothing here imports a rule helper from ``src/``:
only the span model and the one constant both sides must share.
"""

from collections import defaultdict
from typing import Optional

from repro.core.span import Span, SpanKind, SpanSide
from repro.server.assembler import ENCLOSURE_SLACK


def assign_parents(spans: list[Span], *, enable_queue_relay: bool = True,
                   enable_x_request_id: bool = True) -> None:
    """Apply the parent-rule table to a span set, in priority order.

    Every rule that links across association axes guards against
    introducing a cycle by walking the candidate parent's ancestor chain
    (:func:`_creates_cycle`): the chain rules may already have parented
    the candidate — possibly through intermediate network spans — under
    the very span being linked.  Spans are processed in canonical
    ``(start_time, span_id)`` order inside each phase so the outcome is
    independent of input order.
    """
    for span in spans:
        span.parent_id = None
    by_id = {span.span_id: span for span in spans}
    ordered = sorted(spans, key=lambda span: (span.start_time,
                                              span.span_id))
    _chain_message_groups(spans)
    _apply_app_rules(ordered, by_id)
    _apply_intra_component_rules(ordered, by_id,
                                 enable_x_request_id=enable_x_request_id)
    if enable_queue_relay:
        _apply_queue_relay_rules(ordered, by_id)


def _creates_cycle(span: Span, parent: Span,
                   by_id: dict[int, Span]) -> bool:
    """Whether setting ``span.parent_id = parent.span_id`` would close a
    cycle, i.e. *span* is already an ancestor of *parent*.

    The predecessor guard (``parent.parent_id != span.span_id``) only
    caught two-cycles; the chain rules can put the candidate parent
    under *span* through intermediate network spans, closing longer
    cycles, so the whole ancestor chain is walked.
    """
    target = span.span_id
    seen: set[int] = set()
    current: Optional[Span] = parent
    while current is not None:
        if current.span_id == target:
            return True
        if current.span_id in seen:
            return False  # pre-existing cycle elsewhere; don't join it
        seen.add(current.span_id)
        parent_id = current.parent_id
        current = by_id.get(parent_id) if parent_id is not None else None
    return False


def _message_groups(spans: list[Span]) -> dict[tuple, list[Span]]:
    """Group spans observing the *same message* on the same flow.

    The grouping key is (flow, request first-byte sequence): L2/3/4
    forwarding preserves it, so the client span, every capture-point span,
    and the server span of one request/response exchange share it.
    """
    groups: dict[tuple, list[Span]] = defaultdict(list)
    for span in spans:
        if span.flow_key is not None and span.req_tcp_seq is not None:
            groups[(span.flow_key, span.req_tcp_seq)].append(span)
    return groups


def _chain_message_groups(spans: list[Span]) -> None:
    """Rules 1–4: inter-component chaining along the network path.

    Within one message group:
      R1  first network span          ← client-side eBPF span
      R2  network span at path index i ← network span at index i-1
      R3  server-side eBPF span        ← last network span
      R4  server-side eBPF span        ← client-side eBPF span (no taps)
    """
    for members in _message_groups(spans).values():
        client = _pick(members, SpanSide.CLIENT)
        server = _pick(members, SpanSide.SERVER)
        nets = sorted((span for span in members
                       if span.side is SpanSide.NETWORK),
                      key=lambda span: (span.path_index, span.start_time,
                                        span.span_id))
        if server is not None and client is not None:
            if (server.resp_tcp_seq is not None
                    and client.resp_tcp_seq is not None
                    and server.resp_tcp_seq != client.resp_tcp_seq):
                # Same request seq but different response seq: not the
                # same exchange; refuse to chain.
                server = None
        previous = client
        for net in nets:
            if previous is not None and net.parent_id is None:
                net.parent_id = previous.span_id
            previous = net
        if server is not None and previous is not None \
                and server.parent_id is None and previous is not server:
            server.parent_id = previous.span_id


def _pick(members: list[Span], side: SpanSide) -> Optional[Span]:
    candidates = [span for span in members if span.side is side
                  and span.kind in (SpanKind.SYSCALL, SpanKind.UPROBE)]
    if not candidates:
        return None
    # Deterministic choice: earliest start, then smallest id.
    return min(candidates, key=lambda span: (span.start_time, span.span_id))


def _apply_app_rules(spans: list[Span], by_id: dict[int, Span]) -> None:
    """Rules 5–7: third-party (OpenTelemetry-style) span integration.

      R5  app span ← app span named by its explicit parent span id
      R6  app span ← server-side eBPF span on the same host+pid whose
          interval encloses it (tightest such span)
      R7  client-side eBPF span ← app span on the same host+pid whose
          interval encloses it (tightest), when no explicit link exists
    """
    app_spans = [span for span in spans if span.kind is SpanKind.APP]
    if not app_spans:
        return
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
                               and candidate.kind in (SpanKind.SYSCALL,
                                                      SpanKind.UPROBE)
                               and candidate.host == span.host
                               and candidate.pid == span.pid))
        if enclosing is not None \
                and not _creates_cycle(span, enclosing, by_id):
            span.parent_id = enclosing.span_id
    for span in spans:
        if (span.parent_id is not None or span.side is not SpanSide.CLIENT
                or span.kind not in (SpanKind.SYSCALL, SpanKind.UPROBE)):
            continue
        enclosing = _tightest_enclosing(
            span, app_spans,
            lambda candidate: (candidate.host == span.host
                               and candidate.pid == span.pid))
        if enclosing is not None \
                and not _creates_cycle(span, enclosing, by_id):
            span.parent_id = enclosing.span_id


def _apply_intra_component_rules(spans: list[Span],
                                 by_id: dict[int, Span], *,
                                 enable_x_request_id: bool = True) -> None:
    """Rules 8–10: intra-component association.

      R8  client-side eBPF span ← server-side eBPF span with the same
          systrace_id (thread/pseudo-thread association, Fig 7(a))
      R9  client-side eBPF span ← server-side eBPF span with the same
          X-Request-ID on the same host+pid (cross-thread association)
      R10 server-side eBPF span with no inter-component parent stays a
          root (external caller)
    """
    def _keep_canonical(table: dict, key, span: Span) -> None:
        existing = table.get(key)
        if existing is None or ((span.start_time, span.span_id)
                                < (existing.start_time,
                                   existing.span_id)):
            table[key] = span

    servers_by_systrace: dict[int, Span] = {}
    servers_by_xreq: dict[tuple, Span] = {}
    for span in spans:
        if span.side is not SpanSide.SERVER:
            continue
        if span.systrace_id is not None:
            _keep_canonical(servers_by_systrace, span.systrace_id, span)
        if span.x_request_id:
            _keep_canonical(servers_by_xreq,
                            (span.host, span.pid, span.x_request_id),
                            span)
    for span in spans:
        if (span.parent_id is not None or span.side is not SpanSide.CLIENT
                or span.kind not in (SpanKind.SYSCALL, SpanKind.UPROBE)):
            continue
        parent = None
        if span.systrace_id is not None:
            parent = servers_by_systrace.get(span.systrace_id)
        if ((parent is None or parent is span) and span.x_request_id
                and enable_x_request_id):
            parent = servers_by_xreq.get(
                (span.host, span.pid, span.x_request_id))
        if (parent is not None and parent is not span
                and not _creates_cycle(span, parent, by_id)):
            # Cycle guard: the chain rules may already have put the
            # server span under this client span, directly or through
            # intermediate network spans.
            span.parent_id = parent.span_id


def _apply_queue_relay_rules(spans: list[Span],
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
           (protocol, resource, message id) and an earlier start.
    """
    publishes: dict[tuple, Span] = {}
    for span in spans:
        if (span.side is SpanSide.SERVER and span.message_id is not None
                and span.protocol in ("amqp", "kafka", "mqtt")):
            key = (span.protocol, span.resource, span.message_id)
            existing = publishes.get(key)
            if existing is None or ((span.start_time, span.span_id)
                                    < (existing.start_time,
                                       existing.span_id)):
                publishes[key] = span
    for span in spans:
        if (span.parent_id is not None
                or span.side is not SpanSide.CLIENT
                or span.message_id is None
                or span.protocol not in ("amqp", "kafka", "mqtt")):
            continue
        key = (span.protocol, span.resource, span.message_id)
        publish = publishes.get(key)
        if (publish is not None and publish is not span
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
