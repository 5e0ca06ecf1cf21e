"""Algorithm 1's iterative span search, kept as the reference.

The paper (§3.3.2) collects a trace by iteration: starting from a
user-chosen span, gather every association key of the current span set
(:func:`repro.server.index.association_keys`), ask the database for all
spans carrying any of them, and repeat until the set stops growing or
the iteration bound ("the default is 30") is reached.  Production reads
the same fixed point — a connected component of the association graph —
straight out of the stores' incremental union-find, so nothing under
:class:`repro.server.server.DeepFlowServer` calls this module.  It
exists because it *is* the paper's algorithm: Fig 15 times it against
the span-list scan, the iteration-budget ablation truncates it, and the
property tests hold the union-find equal to it and to a BFS oracle.

It reads the per-axis postings through one read-only accessor,
``carriers(tagged_keys)`` of :class:`repro.server.database.SpanStore`
(and so of the server's :class:`repro.server.sharding.ShardedSpanStore`),
one lookup per key in the one posting map.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.span import Span, Trace
from repro.server.assembler import build_trace
from repro.server.index import association_keys

__all__ = ["DEFAULT_ITERATIONS", "IterativeSearch", "assemble_iterative",
           "collect_iterative"]

#: Default iteration bound of Algorithm 1 ("the default is 30").
DEFAULT_ITERATIONS = 30


class IterativeSearch(NamedTuple):
    """What one run of the iterative search found and what it cost."""

    spans: list[Span]
    #: search rounds run, the last (empty or bound-hitting) one included.
    rounds: int
    #: association keys resolved against the store's postings.
    lookups: int


def collect_iterative(store, start_span_id: int,
                      iterations: int = DEFAULT_ITERATIONS
                      ) -> IterativeSearch:
    """Lines 1–16 of Algorithm 1 over *store*, at most *iterations* rounds.

    Each round turns only the spans discovered in the previous round
    into keys, and asks the store only about keys it has not answered
    yet — O(spans) keys overall instead of O(spans × rounds).  The union
    over rounds is what re-querying the whole filter would return,
    because a key's posting does not change during a query.
    """
    start = store.get(start_span_id)
    if start is None:
        raise KeyError(f"unknown span id {start_span_id}")
    asked: set[tuple] = set()
    span_ids: set[int] = {start_span_id}
    frontier: list[Span] = [start]
    rounds = 0
    for rounds in range(1, iterations + 1):
        fresh = {key for span in frontier
                 for key in association_keys(span)} - asked
        asked |= fresh
        found = store.carriers(fresh) - span_ids
        if not found:
            break
        span_ids |= found
        frontier = [store.get(span_id) for span_id in found]
    return IterativeSearch([store.get(span_id) for span_id in span_ids],
                           rounds, len(asked))


def assemble_iterative(store, start_span_id: int,
                       iterations: int = DEFAULT_ITERATIONS,
                       **rule_switches: bool) -> Trace:
    """Full Algorithm 1: iterative search, then the shared
    :func:`repro.server.assembler.build_trace` (*rule_switches* are its
    ablation switches)."""
    found = collect_iterative(store, start_span_id, iterations)
    return build_trace(found.spans, **rule_switches)
