"""Agent self-protection under overload (§2.3's bounded-overhead promise).

A production agent cannot emit every span: Appendix B's own numbers put
full instrumentation at tens of µs per syscall, and when the perf buffer
overruns, a naive agent loses *random* records — shredding traces into
orphan-response / no-response fragments.  This module closes the loop:

* :class:`HeadSampler` — a trace-atomic head-based sampler.  The
  sampling unit is one request/response *exchange* on a flow, detected
  kernel-side from direction flips; the keep/drop decision is made once
  at the exchange head (a stable hash of the canonical five-tuple and
  the exchange index) and is *sticky* for every later record of the
  exchange.  Whole traces survive or are dropped whole — never shredded.
  Both endpoints of a flow hash the same canonical key, so a client-side
  agent and a server-side agent agree on which exchanges to keep.

* :class:`OverloadController` — a circuit breaker with explicit
  degradation tiers and hysteresis, ticked from the agent's poll loop on
  perf-buffer occupancy and drop deltas:

  ==============  =====================================================
  FULL            everything on (the steady state)
  SHED_PAYLOAD    skip L7 payload copy-out and dissection; keep the
                  TCP-seq / syscall / pseudo-thread association fields,
                  so Algorithm 1 still links the (degraded) spans
  HEAD_SAMPLE     additionally admit only a fraction of exchanges,
                  whole-trace-atomically; the rate adapts by AIMD
                  (halve under pressure, double on recovery)
  SHED_SPANS      admit no new exchanges at all (in-flight exchanges
                  keep their sticky decision, so even this tier never
                  tears a trace in half)
  ==============  =====================================================

  Detail is shed before association, and association before spans —
  Nahida's ordering for in-band eBPF tracing under pressure.  Tier
  transitions are recorded as deterministic sim-time events and
  surfaced through ``agent.health()`` and the analysis watchdog.

The per-record decision path (:meth:`HeadSampler.admit`) and the
per-poll tier check (:meth:`OverloadController.tick`) are
allocation-free; ``tools/analyze``'s hot-path checker enforces this.
"""

from __future__ import annotations

import enum
import zlib
from typing import Callable, Optional

from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction
from repro.protocols.base import MessageType, ParsedMessage


class Tier(enum.IntEnum):
    """Degradation tiers, ordered from healthy to most degraded."""

    FULL = 0
    SHED_PAYLOAD = 1
    HEAD_SAMPLE = 2
    SHED_SPANS = 3


#: :meth:`HeadSampler.admit` return codes.  DROP means the record is
#: sampled out; ADMIT_HEAD marks the first record of a direction run
#: (the head of a message), ADMIT a same-direction continuation — the
#: distinction lets the payload-shedding path keep multi-syscall
#: messages as one message instead of fragmenting them.
DROP = 0
ADMIT = 1
ADMIT_HEAD = 2

#: Protocol label stamped on spans built without payload (SHED_PAYLOAD
#: and beyond): the L7 detail is gone but the span is real.
DEGRADED_PROTOCOL = "degraded"

#: Shared immutable messages for the degraded parse path.  The pipeline
#: treats :class:`ParsedMessage` as immutable after construction, so two
#: singletons serve every payload-shed record.
DEGRADED_REQUEST = ParsedMessage(protocol=DEGRADED_PROTOCOL,
                                 msg_type=MessageType.REQUEST,
                                 operation="opaque")
DEGRADED_RESPONSE = ParsedMessage(protocol=DEGRADED_PROTOCOL,
                                  msg_type=MessageType.RESPONSE,
                                  operation="opaque")

#: Mixing salt for the sampling hash — fixed, so runs are reproducible
#: and every agent in a cluster computes identical decisions.
_HASH_SALT = b"deepflow-head-sample|"

# Per-socket sampler state slots (a list, mutated in place on the hot
# path instead of reallocating a tuple per record).
_REQ_DIR = 0        # Direction of the first-seen message (the request)
_EXCHANGE = 1       # index of the current exchange on the flow
_DECISION = 2       # sticky keep/drop for the current exchange
_SAW_RESPONSE = 3   # True once a response-direction record was seen
_LAST_DIR = 4       # direction of the previous record (head detection)


def sample_permille(five_tuple: FiveTuple, exchange: int) -> int:
    """Stable per-exchange hash in [0, 1000).

    Keyed on the *canonical* (endpoint-order-independent) five-tuple, so
    the client-side and server-side agents of one flow compute the same
    value; CRC32 rather than ``hash()`` because Python string hashing is
    salted per process and would break determinism.
    """
    text = "%s|%d" % (five_tuple.canonical(), exchange)
    return zlib.crc32(_HASH_SALT + text.encode("ascii")) % 1000


class HeadSampler:
    """Trace-atomic head-based sampler over flow exchanges.

    One instance per agent.  ``rate`` is the target keep probability for
    *new* exchanges; decisions already made stay sticky, so a rate change
    (or a tier change) mid-exchange never splits a trace.
    """

    __slots__ = ("rate", "forced_off", "admitted", "sampled_out",
                 "exchanges_kept", "exchanges_dropped", "_sockets")

    def __init__(self, rate: float = 1.0) -> None:
        self.rate = rate
        #: SHED_SPANS: refuse all *new* exchanges regardless of rate.
        self.forced_off = False
        self.admitted = 0
        self.sampled_out = 0
        self.exchanges_kept = 0
        self.exchanges_dropped = 0
        self._sockets: dict[int, list] = {}

    # -- per-record fast path (allocation-free) -------------------------

    def admit(self, socket_id: int, five_tuple: FiveTuple,
              direction: Direction) -> int:
        """Admission decision for one kernel record.

        Returns :data:`DROP`, :data:`ADMIT`, or :data:`ADMIT_HEAD`.
        Runs once per syscall record, so it must stay allocation-free:
        one dict probe, in-place list mutation, integer returns.
        """
        state = self._sockets.get(socket_id)
        if state is None:
            return self._open(socket_id, five_tuple, direction)
        head = direction is not state[_LAST_DIR]
        state[_LAST_DIR] = direction
        if direction is state[_REQ_DIR]:
            if state[_SAW_RESPONSE]:
                # response → request flip: a new exchange begins, and
                # only here is a fresh keep/drop decision taken.
                state[_EXCHANGE] += 1
                state[_SAW_RESPONSE] = False
                state[_DECISION] = self._decide(five_tuple,
                                                state[_EXCHANGE])
        else:
            state[_SAW_RESPONSE] = True
        if state[_DECISION]:
            self.admitted += 1
            return ADMIT_HEAD if head else ADMIT
        self.sampled_out += 1
        return DROP

    # -- slow paths (once per socket / per exchange) --------------------

    def _open(self, socket_id: int, five_tuple: FiveTuple,
              direction: Direction) -> int:
        """First record on a socket: the observed direction defines the
        request direction for the flow's lifetime."""
        decision = self._decide(five_tuple, 0)
        self._sockets[socket_id] = [direction, 0, decision, False,
                                    direction]
        if decision:
            self.admitted += 1
            return ADMIT_HEAD
        self.sampled_out += 1
        return DROP

    def _decide(self, five_tuple: FiveTuple, exchange: int) -> bool:
        if self.forced_off:
            self.exchanges_dropped += 1
            return False
        rate = self.rate
        if rate >= 1.0:
            self.exchanges_kept += 1
            return True
        keep = (rate > 0.0
                and sample_permille(five_tuple, exchange) < rate * 1000.0)
        if keep:
            self.exchanges_kept += 1
        else:
            self.exchanges_dropped += 1
        return keep

    # -- bookkeeping -----------------------------------------------------

    def request_direction(self, socket_id: int) -> Optional[Direction]:
        """The flow's request direction, if the socket has been seen."""
        state = self._sockets.get(socket_id)
        return state[_REQ_DIR] if state is not None else None

    def close_socket(self, socket_id: int) -> None:
        """Socket torn down: release its sampling state."""
        self._sockets.pop(socket_id, None)

    def open_sockets(self) -> int:
        """Number of flows currently tracked."""
        return len(self._sockets)


class OverloadController:
    """Circuit breaker driving the degradation-tier state machine.

    Ticked once per agent poll cycle with the perf buffer's occupancy
    (sampled *before* the drain, i.e. the backlog accumulated over one
    poll interval) and the drop delta since the previous tick.

    Escalation is immediate — one tier per pressured tick, so payload
    shedding engages on the first sign of trouble and sampling only if
    that was not enough.  De-escalation is damped by hysteresis: a tier
    step down (or an AIMD rate raise) requires ``hysteresis_ticks``
    consecutive healthy ticks, so the controller cannot flap across a
    threshold.  All decisions are pure functions of the tick inputs, and
    every transition is recorded with its sim-time — two runs of the same
    seeded workload produce byte-identical transition logs.
    """

    __slots__ = ("sampler", "high_water", "low_water", "hysteresis_ticks",
                 "min_rate", "initial_rate", "on_transition", "tier",
                 "transitions", "rate_changes", "healthy_ticks", "ticks")

    def __init__(self, sampler: HeadSampler, *,
                 high_water: float = 0.75,
                 low_water: float = 0.25,
                 hysteresis_ticks: int = 3,
                 min_rate: float = 0.0625,
                 initial_rate: float = 0.5,
                 on_transition: Optional[Callable] = None) -> None:
        if not 0.0 < low_water < high_water <= 1.0:
            raise ValueError("need 0 < low_water < high_water <= 1")
        if hysteresis_ticks < 1:
            raise ValueError("hysteresis_ticks must be >= 1")
        self.sampler = sampler
        self.high_water = high_water
        self.low_water = low_water
        self.hysteresis_ticks = hysteresis_ticks
        self.min_rate = min_rate
        self.initial_rate = initial_rate
        self.on_transition = on_transition
        self.tier = Tier.FULL
        #: Deterministic event log: (sim_time, from_tier, to_tier, reason).
        self.transitions: list[tuple[float, str, str, str]] = []
        #: AIMD steps: (sim_time, new_rate).
        self.rate_changes: list[tuple[float, float]] = []
        self.healthy_ticks = 0
        self.ticks = 0

    # -- the per-poll tier check (allocation-free) -----------------------

    def tick(self, now: float, occupancy: float, drops_delta: int) -> None:
        """One control-loop step; see the class docstring for the rules."""
        self.ticks += 1
        tier = self.tier
        if drops_delta > 0 or occupancy >= self.high_water:
            self.healthy_ticks = 0
            if tier is Tier.FULL:
                self._transition(now, Tier.SHED_PAYLOAD, "perf-pressure")
            elif tier is Tier.SHED_PAYLOAD:
                self._set_rate(now, self.initial_rate)
                self._transition(now, Tier.HEAD_SAMPLE, "perf-pressure")
            elif tier is Tier.HEAD_SAMPLE:
                rate = self.sampler.rate * 0.5
                if rate >= self.min_rate:
                    self._set_rate(now, rate)
                else:
                    self.sampler.forced_off = True
                    self._transition(now, Tier.SHED_SPANS,
                                     "sampling-exhausted")
        elif drops_delta == 0 and occupancy <= self.low_water:
            self.healthy_ticks += 1
            if self.healthy_ticks < self.hysteresis_ticks:
                return
            if tier is Tier.SHED_SPANS:
                self.sampler.forced_off = False
                self._set_rate(now, self.min_rate)
                self._transition(now, Tier.HEAD_SAMPLE, "recovered")
            elif tier is Tier.HEAD_SAMPLE:
                if self.sampler.rate < 1.0:
                    rate = self.sampler.rate * 2.0
                    if rate > 1.0:
                        rate = 1.0
                    self._set_rate(now, rate)
                    self.healthy_ticks = 0
                else:
                    self._transition(now, Tier.SHED_PAYLOAD, "recovered")
            elif tier is Tier.SHED_PAYLOAD:
                self._transition(now, Tier.FULL, "recovered")
        # Middle zone (between the watermarks, no drops): hold the tier
        # and keep the hysteresis credit — neither direction wins.

    # -- internals -------------------------------------------------------

    def _set_rate(self, now: float, rate: float) -> None:
        self.sampler.rate = rate
        self.rate_changes.append((now, rate))

    def _transition(self, now: float, to: Tier, reason: str) -> None:
        old = self.tier
        self.transitions.append((now, old.name, to.name, reason))
        self.tier = to
        self.healthy_ticks = 0
        if self.on_transition is not None:
            self.on_transition(now, old, to)

    def snapshot(self) -> dict:
        """Controller state for ``agent.health()`` (not a hot path)."""
        sampler = self.sampler
        return {
            "tier": self.tier.name,
            "sampling_rate": (0.0 if sampler.forced_off else sampler.rate),
            "ticks": self.ticks,
            "healthy_ticks": self.healthy_ticks,
            "transitions": list(self.transitions),
            "rate_changes": list(self.rate_changes),
            "records_admitted": sampler.admitted,
            "records_sampled_out": sampler.sampled_out,
            "exchanges_kept": sampler.exchanges_kept,
            "exchanges_dropped": sampler.exchanges_dropped,
            "open_flows": sampler.open_sockets(),
        }
