"""Session aggregation (§3.3.1, Figure 6 phase 3).

A *session* pairs one request with one response on the same flow; it
becomes a span whose start is the request and whose end is the response.
Pipeline protocols match by order within the connection; parallel
protocols match by the protocol's embedded distinguishing attribute
(stream id / transaction id / correlation id, carried here as
``ParsedMessage.stream_id``).

To merge effectively despite multi-core disorder, DeepFlow keeps messages
in a time-window array (60-second slots); only requests in the same or
adjacent slot are eligible to match a response.  Requests that outlive the
window without a response are flushed as error sessions ("DeepFlow
considers any missing responses as outcomes resulting from unexpected
execution terminations").
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.agent.overload import DEGRADED_PROTOCOL
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.protocols.base import MessageType, ParsedMessage

#: Duration of one time-window slot, seconds (§3.3.1: "DeepFlow presently
#: sets the duration of each time slot to 60 seconds").
DEFAULT_SLOT_DURATION = 60.0


class Message:
    """One parsed protocol message plus its kernel-side provenance.

    Built once, complete, by the agent's per-message path: the event time
    and the running byte / exit-time totals are fixed here from the first
    syscall's record, and nothing is stamped on afterwards.
    """

    __slots__ = ("record", "parsed", "systrace_id", "pthread_key",
                 "via_uprobe", "time", "total_bytes", "last_exit_time")

    def __init__(self, record: SyscallRecord, parsed: ParsedMessage,
                 systrace_id: Optional[int] = None,
                 pthread_key: Optional[tuple] = None,
                 via_uprobe: bool = False) -> None:
        self.record = record
        self.parsed = parsed
        self.systrace_id = systrace_id
        self.pthread_key = pthread_key
        self.via_uprobe = via_uprobe
        exit_time = record.exit_time
        #: Event time: arrival for ingress, start for egress.
        self.time = (exit_time if record.direction is Direction.INGRESS
                     else record.enter_time)
        self.total_bytes = record.byte_len
        self.last_exit_time = exit_time

    @property
    def end_time(self) -> float:
        """Timestamp of the message's last syscall."""
        return self.last_exit_time

    def absorb_continuation(self, record: SyscallRecord) -> None:
        """Fold a follow-up syscall of the same message into this one
        (§3.3.1: only the first syscall of a message is processed)."""
        self.total_bytes += record.byte_len
        self.last_exit_time = max(self.last_exit_time, record.exit_time)


@dataclass(slots=True)
class Session:
    """A matched (or degenerate) request/response pair on one socket."""

    socket_id: int
    request: Optional[Message] = None
    response: Optional[Message] = None
    error: str = ""  # "", "no-response", "orphan-response", "reset"

    @property
    def complete(self) -> bool:
        """Whether both request and response are present."""
        return self.request is not None and self.response is not None


class TimeWindowArray:
    """Slot-bucketed storage bounding how far apart matches may be."""

    def __init__(self, slot_duration: float = DEFAULT_SLOT_DURATION):
        if slot_duration <= 0:
            raise ValueError("slot duration must be positive")
        self.slot_duration = slot_duration

    def slot_of(self, timestamp: float) -> int:
        """Index of the time slot containing *timestamp*."""
        return int(timestamp // self.slot_duration)

    def in_window(self, earlier: float, later: float) -> bool:
        """Same slot or adjacent slot (§3.3.1)."""
        return abs(self.slot_of(later) - self.slot_of(earlier)) <= 1

    def horizon(self, now: float) -> int:
        """Oldest slot still inside the matching window at *now*; a
        caller expiring many timestamps against one *now* asks once."""
        return int(now // self.slot_duration) - 1

    def expired(self, timestamp: float, now: float) -> bool:
        """Whether *timestamp* fell out of the matching window."""
        return self.slot_of(timestamp) < self.horizon(now)


class _SocketState:
    """Open requests for one socket: FIFO plus by-stream-id index.

    ``orphan_responses`` holds multiplexed responses observed *before*
    their request — the multi-core disorder the time-window array exists
    for (§3.3.1); matching is symmetric within the window.
    """

    def __init__(self) -> None:
        self.pipeline: deque[Message] = deque()
        self.by_stream: OrderedDict[int, Message] = OrderedDict()
        self.orphan_responses: OrderedDict[int, Message] = OrderedDict()

    def __len__(self) -> int:
        return len(self.pipeline) + len(self.by_stream)

    def iter_open(self) -> Iterator[Message]:
        """Iterate every open (unmatched) request."""
        yield from self.pipeline
        yield from self.by_stream.values()

    def clear(self) -> list[Message]:
        """Drop and return all open requests."""
        opens = list(self.iter_open())
        self.pipeline.clear()
        self.by_stream.clear()
        return opens


class SessionAggregator:
    """Pairs requests with responses per socket."""

    def __init__(self, slot_duration: float = DEFAULT_SLOT_DURATION):
        self.window = TimeWindowArray(slot_duration)
        self._sockets: dict[int, _SocketState] = {}
        self.matched = 0
        self.expired = 0
        self.orphans = 0
        #: Matched sessions whose detail was shed under overload.
        self.degraded = 0

    def _state(self, socket_id: int) -> _SocketState:
        state = self._sockets.get(socket_id)
        if state is None:
            state = self._sockets[socket_id] = _SocketState()
        return state

    def add(self, message: Message) -> list[Session]:
        """Feed one message; returns any sessions completed by it.

        A response may also force out expired requests ahead of it in a
        pipeline, so more than one session can emerge.
        """
        msg_type = message.parsed.msg_type
        if msg_type is MessageType.REQUEST:
            return list(self._add_request(message))
        if msg_type is MessageType.RESPONSE:
            return list(self._match_response(message))
        return []  # UNKNOWN (opaque) messages never form sessions

    def _add_request(self, message: Message) -> Sequence[Session]:
        """:meth:`add` for a message known to be a request; the common
        no-session outcome is one shared empty tuple."""
        socket_id = message.record.socket_id
        state = self._state(socket_id)
        stream_id = message.parsed.stream_id
        if stream_id is not None:
            # Symmetric window matching: the response may already be
            # waiting (multi-core event disorder, §3.3.1).
            response = state.orphan_responses.pop(stream_id, None)
            if response is not None and self.window.in_window(
                    message.time, response.time):
                return (self._pair(socket_id, message, response),)
            state.by_stream[stream_id] = message
        else:
            state.pipeline.append(message)
        return ()

    def _match_response(self, message: Message) -> Sequence[Session]:
        """:meth:`add` for a message known to be a response."""
        socket_id = message.record.socket_id
        state = self._state(socket_id)
        stream_id = message.parsed.stream_id
        if stream_id is not None:
            request = state.by_stream.pop(stream_id, None)
            if request is None:
                # Hold it: the request may still arrive out of order.
                state.orphan_responses[stream_id] = message
                return ()
            return (self._pair(socket_id, request, message),)
        # Pipeline: expire requests that fell out of the time window, then
        # match the oldest remaining one.
        pipeline = state.pipeline
        sessions: list[Session] = []
        if pipeline:
            window = self.window
            horizon = window.horizon(message.time)
            while pipeline and window.slot_of(pipeline[0].time) < horizon:
                self.expired += 1
                sessions.append(Session(socket_id, pipeline.popleft(), None,
                                        "no-response"))
        if not pipeline:
            self.orphans += 1
            sessions.append(Session(socket_id, None, message,
                                    "orphan-response"))
            return sessions
        sessions.append(self._pair(socket_id, pipeline.popleft(), message))
        return sessions

    def _pair(self, socket_id: int, request: Message,
              response: Message) -> Session:
        self.matched += 1
        if (request.parsed.protocol == DEGRADED_PROTOCOL
                or response.parsed.protocol == DEGRADED_PROTOCOL):
            self.degraded += 1
        return Session(socket_id, request, response)

    def open_request_count(self, socket_id: Optional[int] = None) -> int:
        """Open requests on one socket (or all)."""
        if socket_id is not None:
            state = self._sockets.get(socket_id)
            return len(state) if state else 0
        return sum(len(state) for state in self._sockets.values())

    def flush_expired(self, now: float) -> list[Session]:
        """Expire unmatched requests older than the window."""
        sessions: list[Session] = []
        for socket_id, state in self._sockets.items():
            keep_pipeline = deque()
            for message in state.pipeline:
                if self.window.expired(message.time, now):
                    self.expired += 1
                    sessions.append(Session(socket_id, request=message,
                                            error="no-response"))
                else:
                    keep_pipeline.append(message)
            state.pipeline = keep_pipeline
            for stream_id in list(state.by_stream):
                message = state.by_stream[stream_id]
                if self.window.expired(message.time, now):
                    del state.by_stream[stream_id]
                    self.expired += 1
                    sessions.append(Session(socket_id, request=message,
                                            error="no-response"))
            for stream_id in list(state.orphan_responses):
                message = state.orphan_responses[stream_id]
                if self.window.expired(message.time, now):
                    del state.orphan_responses[stream_id]
                    self.orphans += 1
                    sessions.append(Session(socket_id, response=message,
                                            error="orphan-response"))
        return sessions

    def close_socket(self, socket_id: int,
                     error: str = "reset") -> list[Session]:
        """Connection torn down: every open request ends in error."""
        state = self._sockets.pop(socket_id, None)
        if state is None:
            return []
        sessions = [Session(socket_id, request=message, error=error)
                    for message in state.clear()]
        self.expired += len(sessions)
        for message in state.orphan_responses.values():
            self.orphans += 1
            sessions.append(Session(socket_id, response=message,
                                    error="orphan-response"))
        state.orphan_responses.clear()
        return sessions
