"""Implicit intra-component association (§3.3.2, Figure 7).

This module assigns each observed message a ``systrace_id`` — the global
unique identifier shared by causally related spans within a component —
without any context ever travelling inside the packets.

The rules implemented here are the paper's:

* **Thread association (Fig 7(a))** — messages on the same kernel thread
  share the thread's current systrace_id.
* **Thread-reuse partitioning (Fig 7(b))** — an *ingress request* starts a
  new systrace_id: the thread has moved on to serving a new request.
* **Multiple requests/responses (Fig 7(c))** — "computing does not yield
  to scheduling, whereas network communication does": consecutive
  messages of different types from different sockets inherit the current
  systrace_id, which the state machine below realizes by inheriting on
  everything except a fresh ingress request.
* **Coroutine pseudo-threads** — coroutine creation events (observed in
  the kernel) build a parent/child structure.  A coroutine created while
  its parent's pseudo-thread is serving an open request joins the
  parent's pseudo-thread (a worker spawned to make downstream calls); a
  coroutine created outside any open request (e.g. by a long-lived
  acceptor loop) starts its own pseudo-thread.  This is the scheduling
  insight that keeps concurrent handlers separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.ids import IdAllocator
from repro.kernel.syscalls import CoroutineEvent, Direction
from repro.protocols.base import MessageType


@dataclass
class _PthreadState:
    """Mutable association state for one pseudo-thread."""

    current_systrace: Optional[int] = None
    open_requests: int = 0
    #: Set once a client-side exchange completes: the next egress request
    #: belongs to a new causal unit (Fig 7(b) partitioning, client side).
    client_exchange_done: bool = False
    #: Monotone count of systrace allocations on this pseudo-thread; spans
    #: carry (pthread, generation) so that the Algorithm 1 pseudo-thread
    #: filter matches within one request's lifetime, not across reuses.
    generation: int = 0


class AssociationTracker:
    """Per-host pseudo-thread bookkeeping and systrace assignment."""

    def __init__(self, ids: IdAllocator, host: str = ""):
        self._ids = ids
        self.host = host
        self._coroutine_parent: dict[tuple[int, int], Optional[int]] = {}
        self._pthread_of_coroutine: dict[tuple[int, int], int] = {}
        self._states: dict[tuple, _PthreadState] = {}

    # -- coroutine lifecycle -------------------------------------------------

    def on_coroutine_event(self, event: CoroutineEvent) -> None:
        """Record a coroutine lifecycle event."""
        if event.kind != "create":
            return
        key = (event.pid, event.coroutine_id)
        self._coroutine_parent[key] = event.parent_coroutine_id
        if event.parent_coroutine_id is None:
            self._pthread_of_coroutine[key] = event.coroutine_id
            return
        parent_key = (event.pid, event.parent_coroutine_id)
        parent_pthread = self._pthread_of_coroutine.get(
            parent_key, event.parent_coroutine_id)
        parent_state = self._states.get(("c", event.pid, parent_pthread))
        if parent_state is not None and parent_state.open_requests > 0:
            # Spawned mid-request: a worker for the parent's request.
            self._pthread_of_coroutine[key] = parent_pthread
        else:
            # Spawned by an idle/daemon coroutine (acceptor loop): new
            # pseudo-thread, keeping concurrent handlers separate.
            self._pthread_of_coroutine[key] = event.coroutine_id

    # -- pseudo-thread resolution --------------------------------------------

    def pthread_key(self, pid: int, tid: int,
                    coroutine_id: Optional[int]) -> tuple:
        """The pseudo-thread key for a syscall context."""
        if coroutine_id is None:
            return ("t", pid, tid)
        pthread = self._pthread_of_coroutine.get(
            (pid, coroutine_id), coroutine_id)
        return ("c", pid, pthread)

    # -- systrace assignment ---------------------------------------------

    def observe(self, pid: int, tid: int, coroutine_id: Optional[int],
                msg_type: MessageType, direction: Direction
                ) -> tuple[tuple, int, int]:
        """One observed message: resolve the pseudo-thread, assign the
        systrace, and report the generation, in a single state lookup.

        Returns ``(pthread_key, systrace_id, generation)`` — the fused
        form of :meth:`pthread_key` + :meth:`assign_systrace` +
        :meth:`generation` the agent's hot path calls per message.
        """
        pthread = self.pthread_key(pid, tid, coroutine_id)
        state = self._states.get(pthread)
        if state is None:
            state = self._states[pthread] = _PthreadState()
        systrace = self._advance(state, msg_type, direction)
        return pthread, systrace, state.generation

    def assign_systrace(self, pthread_key: tuple, msg_type: MessageType,
                        direction: Direction) -> int:
        """Assign (and update) the systrace id for one observed message.

        Must be called in per-host chronological message order.  The state
        machine implements Figure 7:

        * ingress request  → always a fresh systrace (server-side thread
          reuse partitioning);
        * egress request   → fresh when the pseudo-thread has no causal
          context (first message, or the previous client exchange already
          completed — client-side partitioning); otherwise inherited;
        * responses        → always inherited.
        """
        state = self._states.get(pthread_key)
        if state is None:
            state = self._states[pthread_key] = _PthreadState()
        return self._advance(state, msg_type, direction)

    def _advance(self, state: _PthreadState, msg_type: MessageType,
                 direction: Direction) -> int:
        """Run the Figure 7 state machine for one message."""
        is_request = msg_type is MessageType.REQUEST
        fresh = False
        if is_request and direction is Direction.INGRESS:
            fresh = True
        elif is_request and direction is Direction.EGRESS:
            fresh = (state.current_systrace is None
                     or (state.open_requests == 0
                         and state.client_exchange_done))
        elif state.current_systrace is None:
            fresh = True
        if fresh:
            state.current_systrace = self._ids.next_id()
            state.generation += 1
            state.client_exchange_done = False
        if is_request and direction is Direction.INGRESS:
            state.open_requests += 1
        elif msg_type is MessageType.RESPONSE:
            if direction is Direction.EGRESS and state.open_requests > 0:
                state.open_requests -= 1
            elif (direction is Direction.INGRESS
                  and state.open_requests == 0):
                state.client_exchange_done = True
        return state.current_systrace

    def note_exchange_aborted(self, pthread_key: tuple) -> None:
        """A client exchange died (reset/EOF before the response).

        The next egress request on the pseudo-thread starts a new causal
        unit — unless the pseudo-thread is still serving an open ingress
        request, in which case the failed downstream call stays inside
        that request's systrace.
        """
        state = self._states.get(pthread_key)
        if state is not None and state.open_requests == 0:
            state.client_exchange_done = True

    def generation(self, pthread_key: tuple) -> int:
        """Current systrace generation on the pseudo-thread."""
        state = self._states.get(pthread_key)
        return state.generation if state else 0

    def current_systrace(self, pthread_key: tuple) -> Optional[int]:
        """The pseudo-thread's current systrace id, if any."""
        state = self._states.get(pthread_key)
        return state.current_systrace if state else None
