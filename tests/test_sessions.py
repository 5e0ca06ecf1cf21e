"""Unit tests for session aggregation (Figure 6 phase 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.sessions import (
    Message,
    SessionAggregator,
    TimeWindowArray,
)
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.protocols.base import MessageType, ParsedMessage

FT = FiveTuple("10.0.0.1", 1000, "10.0.0.2", 80)


def record(direction=Direction.INGRESS, t=0.0, socket_id=1, nbytes=10,
           seq=1):
    return SyscallRecord(
        pid=1, tid=10, coroutine_id=None, process_name="p",
        socket_id=socket_id, five_tuple=FT, tcp_seq=seq,
        enter_time=t, exit_time=t + 0.001, direction=direction,
        abi="read" if direction is Direction.INGRESS else "write",
        byte_len=nbytes, payload=b"x" * nbytes, ret=nbytes)


def message(msg_type, direction=Direction.INGRESS, t=0.0, socket_id=1,
            stream_id=None, seq=1):
    parsed = ParsedMessage(protocol="http", msg_type=msg_type,
                           stream_id=stream_id)
    return Message(record=record(direction, t, socket_id, seq=seq),
                   parsed=parsed)


class TestTimeWindowArray:
    def test_same_slot_in_window(self):
        window = TimeWindowArray(60.0)
        assert window.in_window(10.0, 50.0)

    def test_adjacent_slot_in_window(self):
        window = TimeWindowArray(60.0)
        assert window.in_window(59.0, 61.0)
        assert window.in_window(59.0, 119.0)

    def test_two_slots_apart_out_of_window(self):
        window = TimeWindowArray(60.0)
        assert not window.in_window(10.0, 130.0)

    def test_expiry(self):
        window = TimeWindowArray(60.0)
        assert not window.expired(10.0, 119.0)
        assert window.expired(10.0, 121.0)

    def test_default_slot_is_sixty_seconds(self):
        assert TimeWindowArray().slot_duration == 60.0

    def test_invalid_slot_duration(self):
        with pytest.raises(ValueError):
            TimeWindowArray(0)


class TestPipelineMatching:
    def test_request_then_response_pairs(self):
        aggregator = SessionAggregator()
        assert aggregator.add(message(MessageType.REQUEST, t=1.0)) == []
        sessions = aggregator.add(message(MessageType.RESPONSE, t=2.0))
        assert len(sessions) == 1
        assert sessions[0].complete
        assert aggregator.matched == 1

    def test_order_preserved_for_pipelined_requests(self):
        aggregator = SessionAggregator()
        first = message(MessageType.REQUEST, t=1.0, seq=1)
        second = message(MessageType.REQUEST, t=1.1, seq=100)
        aggregator.add(first)
        aggregator.add(second)
        sessions = aggregator.add(message(MessageType.RESPONSE, t=2.0))
        assert sessions[0].request is first
        sessions = aggregator.add(message(MessageType.RESPONSE, t=2.1))
        assert sessions[0].request is second

    def test_orphan_response_flagged(self):
        aggregator = SessionAggregator()
        sessions = aggregator.add(message(MessageType.RESPONSE, t=1.0))
        assert sessions[0].error == "orphan-response"
        assert sessions[0].request is None

    def test_sockets_are_independent(self):
        aggregator = SessionAggregator()
        aggregator.add(message(MessageType.REQUEST, t=1.0, socket_id=1))
        sessions = aggregator.add(
            message(MessageType.RESPONSE, t=1.5, socket_id=2))
        assert sessions[0].error == "orphan-response"

    def test_expired_request_forced_out_by_late_response(self):
        aggregator = SessionAggregator(slot_duration=1.0)
        stale = message(MessageType.REQUEST, t=0.5)
        aggregator.add(stale)
        aggregator.add(message(MessageType.REQUEST, t=3.5))
        sessions = aggregator.add(message(MessageType.RESPONSE, t=3.6))
        assert len(sessions) == 2
        assert sessions[0].request is stale
        assert sessions[0].error == "no-response"
        assert sessions[1].complete


class TestParallelMatching:
    def test_match_by_stream_id_out_of_order(self):
        aggregator = SessionAggregator()
        aggregator.add(message(MessageType.REQUEST, t=1.0, stream_id=7))
        aggregator.add(message(MessageType.REQUEST, t=1.1, stream_id=9))
        sessions = aggregator.add(
            message(MessageType.RESPONSE, t=2.0, stream_id=9))
        assert sessions[0].request.parsed.stream_id == 9
        sessions = aggregator.add(
            message(MessageType.RESPONSE, t=2.1, stream_id=7))
        assert sessions[0].request.parsed.stream_id == 7

    def test_early_response_buffered_then_matched(self):
        """Multi-core disorder: a response observed before its request
        still pairs (symmetric window matching, §3.3.1)."""
        aggregator = SessionAggregator()
        assert aggregator.add(
            message(MessageType.RESPONSE, t=1.0, stream_id=5)) == []
        sessions = aggregator.add(
            message(MessageType.REQUEST, t=1.001, stream_id=5))
        assert len(sessions) == 1
        assert sessions[0].complete

    def test_unmatched_early_response_expires_as_orphan(self):
        aggregator = SessionAggregator(slot_duration=1.0)
        aggregator.add(message(MessageType.RESPONSE, t=1.0, stream_id=5))
        sessions = aggregator.flush_expired(now=10.0)
        assert len(sessions) == 1
        assert sessions[0].error == "orphan-response"
        assert aggregator.orphans == 1


class TestFlushAndClose:
    def test_flush_expires_old_requests(self):
        aggregator = SessionAggregator(slot_duration=1.0)
        aggregator.add(message(MessageType.REQUEST, t=0.5))
        assert aggregator.flush_expired(now=1.5) == []
        sessions = aggregator.flush_expired(now=3.0)
        assert len(sessions) == 1
        assert sessions[0].error == "no-response"

    def test_flush_expires_stream_requests(self):
        aggregator = SessionAggregator(slot_duration=1.0)
        aggregator.add(message(MessageType.REQUEST, t=0.5, stream_id=3))
        sessions = aggregator.flush_expired(now=5.0)
        assert len(sessions) == 1

    def test_close_socket_errors_all_open_requests(self):
        aggregator = SessionAggregator()
        aggregator.add(message(MessageType.REQUEST, t=1.0))
        aggregator.add(message(MessageType.REQUEST, t=1.1, stream_id=2))
        sessions = aggregator.close_socket(1, error="reset")
        assert len(sessions) == 2
        assert all(session.error == "reset" for session in sessions)
        assert aggregator.open_request_count(1) == 0

    def test_unknown_message_type_ignored(self):
        aggregator = SessionAggregator()
        assert aggregator.add(message(MessageType.UNKNOWN)) == []
        assert aggregator.open_request_count() == 0

    def test_continuation_absorption(self):
        msg = message(MessageType.REQUEST, t=1.0, seq=1)
        continuation = record(Direction.INGRESS, t=1.05, nbytes=500)
        msg.absorb_continuation(continuation)
        assert msg.total_bytes == 510
        assert msg.end_time == pytest.approx(1.051)


class TestSocketStateAllocation:
    def test_socket_state_is_built_once_per_socket(self, monkeypatch):
        """Per-socket state is allocated on the first message of a
        socket, not built and thrown away on every message."""
        from repro.agent import sessions

        built = []

        class CountingState(sessions._SocketState):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(sessions, "_SocketState", CountingState)
        aggregator = SessionAggregator()
        completed = 0
        for index in range(50):
            for socket_id in (1, 2):
                msg_type = (MessageType.REQUEST if index % 2 == 0
                            else MessageType.RESPONSE)
                completed += len(aggregator.add(
                    message(msg_type, t=index * 0.01, socket_id=socket_id)))
        assert completed == 50
        assert len(built) == 2


class TestSessionInvariants:
    @given(st.lists(st.sampled_from(["req", "resp"]), min_size=1,
                    max_size=40))
    @settings(max_examples=60)
    def test_matched_plus_orphans_equals_responses(self, sequence):
        """Every response either matches a request or is an orphan."""
        aggregator = SessionAggregator()
        t = 0.0
        responses = 0
        for kind in sequence:
            t += 0.01
            if kind == "req":
                aggregator.add(message(MessageType.REQUEST, t=t))
            else:
                responses += 1
                aggregator.add(message(MessageType.RESPONSE, t=t))
        assert aggregator.matched + aggregator.orphans == responses

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30)
    def test_every_request_eventually_accounted(self, n_requests):
        """flush at infinity: all unmatched requests become error sessions."""
        aggregator = SessionAggregator(slot_duration=1.0)
        for index in range(n_requests):
            aggregator.add(message(MessageType.REQUEST, t=index * 0.001))
        flushed = aggregator.flush_expired(now=1e6)
        assert len(flushed) == n_requests
