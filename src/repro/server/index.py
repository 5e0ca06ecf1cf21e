"""Incremental association-graph index: the Algorithm 1 fast path.

Algorithm 1 computes, for a starting span, the fixed point of "all spans
sharing an association key with the current set".  That fixed point is
exactly a connected component of the *association graph* whose vertices
are spans and whose edges join spans carrying a common association key
(systrace_id, pseudo-thread, X-Request-ID, per-flow TCP sequence,
third-party trace id, queue message key).

Instead of re-running the iterative search from cold indexes on every
query, :class:`TraceGraphIndex` maintains those components *at ingest
time* with a union-find (disjoint-set forest, union by size + path
halving): each association key remembers one span that carries it, and
every later span with the same key is unioned into that span's set.
Trace membership then becomes a near-O(α) ``find`` plus a component
read-out — no iteration, no per-query filter construction.

Spans that never share a key with anyone are kept implicit: they get no
forest entry at all, and ``component`` answers ``{span_id}`` for them
directly.  This keeps the ingest hot path from paying forest setup for
singleton spans.

The iterative search survives as the property-tested reference
implementation (:func:`repro.server.reference.collect_iterative`); the
Fig 15 benchmark reports both so the paper's span-list vs trace-query
ratio story stays visible.
"""

from __future__ import annotations

from typing import Optional

#: Protocols whose (resource, message id) pairs identify a message across
#: a broker relay — the queue-tracing extension's association axis.
QUEUE_RELAY_PROTOCOLS = ("amqp", "kafka", "mqtt")


def association_keys(span) -> list[tuple]:
    """The tagged association keys one span contributes to Algorithm 1.

    This is the reference definition of the association axes, used by
    :func:`repro.server.reference.collect_iterative` (the iterative
    path); the span store's fused ingest loop inlines the same checks
    per axis and the fast-vs-reference property test holds the two in
    lock step.  Tags keep the per-axis key spaces disjoint:

    ``("sys", id)`` systrace · ``("pt", key)`` pseudo-thread ·
    ``("xr", id)`` X-Request-ID · ``("fs", (flow, leg, seq))`` per-flow
    TCP sequence · ``("ot", id)`` third-party trace · ``("mq",
    (protocol, resource, message id))`` queue-relay message.
    """
    keys: list[tuple] = []
    if span.systrace_id is not None:
        keys.append(("sys", span.systrace_id))
    if span.pseudo_thread_key:
        keys.append(("pt", span.pseudo_thread_key))
    if span.x_request_id:
        keys.append(("xr", span.x_request_id))
    if span.flow_key is not None:
        # Sequence numbers are per-direction counters, so the key carries
        # which leg (request vs response) it refers to.
        if span.req_tcp_seq is not None:
            keys.append(("fs", (span.flow_key, "q", span.req_tcp_seq)))
        if span.resp_tcp_seq is not None:
            keys.append(("fs", (span.flow_key, "p", span.resp_tcp_seq)))
    if span.otel_trace_id:
        keys.append(("ot", span.otel_trace_id))
    if (span.message_id is not None
            and span.protocol in QUEUE_RELAY_PROTOCOLS):
        keys.append(("mq", (span.protocol, span.resource,
                            span.message_id)))
    return keys


class TraceGraphIndex:
    """Union-find over spans, merged along shared association keys.

    Supports only growth, which is the regime where union-find is
    optimal: a link is amortized near-O(α), ``component`` is a find plus
    returning the root's member set.  Member sets are merged
    smaller-into-larger, bounding total membership moves at O(n log n)
    over any insert sequence.  When retention drops a time segment, the
    store builds a fresh forest from the survivors' postings.

    The forest knows nothing about keys: its caller (the span store's
    key commit) resolves key → carrier through its posting maps and
    hands over ``(span, carrier)`` pairs.
    """

    def __init__(self) -> None:
        #: span id → union-find parent.  Singleton spans are implicit:
        #: no entry at all until they first share a key.
        self._parent: dict[int, int] = {}
        #: root span id → the ids of every span in its component.
        self._members: dict[int, set[int]] = {}
        #: Optional component-changed event sink.  When armed (set to a
        #: list — the continuous pipeline does this through
        #: ``SpanStore.arm_component_events``), every link applied by
        #: :meth:`link_batch` is also appended here as an ``(a, b)``
        #: pair, giving push-path consumers the exact merge stream the
        #: forest saw.  None (the default) costs one branch per batch.
        self.events: Optional[list] = None

    def __len__(self) -> int:
        return len(self._parent)

    # -- growth -----------------------------------------------------------

    def link_batch(self, links: list[tuple[int, int]]) -> None:
        """Apply a batch of shared-key links in one tight pass.

        The batched ingest path: the store accumulates one (new span,
        existing carrier) pair per matched key across a whole shipment,
        then coalesces every merge here with the forest dicts held in
        locals — no per-link method dispatch.
        """
        events = self.events
        if events is not None:
            events.extend(links)
        parent = self._parent
        members = self._members
        for a, b in links:
            root_b = parent.get(b)
            if root_b is None:
                parent[b] = b
                members[b] = {b}
                root_b = b
            else:
                while parent[root_b] != root_b:
                    parent[root_b] = parent[parent[root_b]]
                    root_b = parent[root_b]
            root_a = parent.get(a)
            if root_a is None:
                # The common ingest shape: *a* is a fresh span joining an
                # existing component — attach it directly instead of
                # building a singleton set only to merge it away.
                parent[a] = root_b
                members[root_b].add(a)
                continue
            while parent[root_a] != root_a:
                parent[root_a] = parent[parent[root_a]]
                root_a = parent[root_a]
            if root_a == root_b:
                continue
            members_a = members[root_a]
            members_b = members[root_b]
            if len(members_a) < len(members_b):
                root_a, root_b = root_b, root_a
                members_a, members_b = members_b, members_a
            parent[root_b] = root_a
            members_a.update(members_b)
            del members[root_b]

    # -- queries ----------------------------------------------------------

    def component(self, span_id: int) -> set[int]:
        """Every span id in *span_id*'s component.

        For spans that have shared a key this returns the live member
        set — treat it as read-only; it is updated in place by later
        inserts.  Callers that need a snapshot copy it.
        """
        parent = self._parent
        root = parent.get(span_id)
        if root is None:
            return {span_id}
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return self._members[root]
