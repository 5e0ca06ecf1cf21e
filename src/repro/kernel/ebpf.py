"""eBPF hook machinery: programs, verifier, hook registry, perf buffer.

This module reproduces the properties of eBPF that the paper leans on
(§2.3.1):

* programs attach to *hook points* (kprobes/tracepoints on syscalls,
  uprobes/uretprobes on user functions) without modifying the monitored
  application — attachment is in-flight;
* a *verifier* statically bounds program complexity before it may attach,
  which is why eBPF cannot crash the kernel the way kernel modules do;
* a program that still misbehaves at runtime (raises) is contained: the
  exception is swallowed and counted, never propagated into the kernel;
* data leaves the kernel through a fixed-size *perf buffer*; overload
  manifests as counted drops, not as blocking of the monitored syscall.

The latency model is calibrated against Figure 13: each hook firing costs a
base dispatch latency plus a per-instruction cost, charged to the syscall
that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional

from repro.kernel.bpf_isa import Insn, execute, hook_type_of
from repro.kernel.verifier import (
    VerifierError,
    VerifierReport,
    verify_bytecode,
)
from repro.sim.engine import Simulator
from repro.sim.queue import Queue

#: Dispatch cost of an empty program, ns (Fig 13(a) "empty eBPF program").
EMPTY_PROGRAM_LATENCY_NS = 180.0

#: Cost per simulated BPF instruction, ns.
PER_INSTRUCTION_LATENCY_NS = 0.35

#: Verifier limit on program size (the real verifier's 1M-insn limit).
MAX_INSTRUCTIONS = 1_000_000

#: Verifier limit on BPF stack usage, bytes.
MAX_STACK_BYTES = 512

#: Instructions executed on the throttled early-exit path: the program
#: reads its rate-limit map entry, finds the bucket empty, and bails out
#: before building the record.  Charged instead of the full path cost.
THROTTLE_EXIT_INSTRUCTIONS = 16


class TokenBucket:
    """Deterministic token bucket for per-hook firing-time throttling.

    Tokens refill continuously at ``rate`` per second of *simulated*
    time up to ``burst``; each admitted firing spends one token.  The
    kernel-side check (`allow`) is the model of the map-lookup +
    decrement a real rate-limiting eBPF program performs, so it must
    stay allocation-free — it runs once per hook firing.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill",
                 "admitted", "throttled")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = 0.0
        self.admitted = 0
        self.throttled = 0

    def allow(self, now: float) -> bool:
        """Spend one token if available; refills from elapsed sim time."""
        elapsed = now - self.last_refill
        if elapsed > 0.0:
            tokens = self.tokens + elapsed * self.rate
            if tokens > self.burst:
                tokens = self.burst
            self.tokens = tokens
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.admitted += 1
            return True
        self.throttled += 1
        return False


@dataclass
class BPFProgram:
    """A small program attached to a hook point.

    ``handler`` is the program body: a callable receiving the hook context.
    ``bytecode`` is the program text in the :mod:`repro.kernel.bpf_isa`
    instruction set; when present the verifier *analyzes* it (CFG, loop
    bounds, register state, stack depth) and the derived worst-case path
    length — not the declared ``instructions`` estimate — drives the
    Fig 13 latency model.  ``instructions``/``stack_bytes`` remain as
    declared estimates for model-only programs without bytecode.
    """

    name: str
    handler: Callable[[Any], None]
    instructions: int = 500
    stack_bytes: int = 128
    bytecode: Optional[tuple[Insn, ...]] = None
    #: System-level cost per firing beyond pure dispatch: perf-buffer
    #: submission, payload copy-out, map churn, cache pressure.  The
    #: paper's own numbers motivate this split: per-hook dispatch is
    #: 277–889 ns (Fig 13) yet full instrumentation costs tens of µs per
    #: syscall at the macro level (Appendix B's 44k→31k RPS drop).
    system_tax_ns: float = 0.0
    #: Optional firing-time rate limiter (agent self-protection): when
    #: set, :meth:`HookRegistry.fire` consults it before running the
    #: program and charges only the early-exit cost on refusal.
    rate_limiter: Optional[TokenBucket] = None
    runtime_faults: int = field(default=0, init=False)
    #: Firings refused by :attr:`rate_limiter` since attach.
    throttled: int = field(default=0, init=False)
    #: Set by :func:`verify_program` when the program carries bytecode.
    verified: Optional[VerifierReport] = field(default=None, init=False)

    @property
    def effective_instructions(self) -> int:
        """Verifier-derived worst-case path length, falling back to the
        declared estimate for programs without bytecode."""
        if self.verified is not None:
            return self.verified.worst_case_instructions
        return self.instructions

    @property
    def latency_ns(self) -> float:
        """Pure dispatch latency per firing (the Fig 13 quantity)."""
        return (EMPTY_PROGRAM_LATENCY_NS
                + self.effective_instructions * PER_INSTRUCTION_LATENCY_NS)

    @property
    def cost_ns(self) -> float:
        """Total kernel time charged per firing."""
        return self.latency_ns + self.system_tax_ns

    def execute(self, context: Any = None, *, submit=None):
        """Run the program's bytecode in the interpreter (tests/debugging)."""
        if self.bytecode is None:
            raise ValueError(f"program {self.name!r} carries no bytecode")
        return execute(self.bytecode, context, submit=submit)


@lru_cache(maxsize=256)
def _verify_cached(bytecode: tuple[Insn, ...],
                   hook_type: str) -> VerifierReport:
    """Verification is deterministic and agents share bytecode tuples,
    so the (immutable) report can be memoized across attaches — one
    analysis per distinct program text, not one per deploy."""
    return verify_bytecode(bytecode, hook_type,
                           stack_limit=MAX_STACK_BYTES,
                           max_path=MAX_INSTRUCTIONS)


def verify_program(program: BPFProgram,
                   hook_type: str = "kprobe") -> None:
    """Static checks performed before a program may attach (§2.3.1).

    Raises :class:`VerifierError` on rejection.  Programs carrying bytecode
    get the full static analysis (:func:`repro.kernel.verifier.
    verify_bytecode`): CFG construction, back-edge trip-bound proofs,
    abstract register typing, stack bounds, and the per-hook-type helper
    whitelist; the derived worst-case path length is recorded on
    ``program.verified`` and replaces the declared instruction count in
    the latency model.  Programs without bytecode only get the declared
    size/stack checks (the honor-system path kept for model-only
    programs).
    """
    if program.bytecode is not None:
        try:
            program.verified = _verify_cached(program.bytecode, hook_type)
        except VerifierError:
            # Re-run uncached so the error names this program.
            verify_bytecode(program.bytecode, hook_type,
                            stack_limit=MAX_STACK_BYTES,
                            max_path=MAX_INSTRUCTIONS,
                            name=program.name)
            raise
        return
    if program.instructions > MAX_INSTRUCTIONS:
        raise VerifierError(
            f"program {program.name!r}: {program.instructions} instructions "
            f"exceeds the {MAX_INSTRUCTIONS} limit")
    if program.stack_bytes > MAX_STACK_BYTES:
        raise VerifierError(
            f"program {program.name!r}: stack {program.stack_bytes}B "
            f"exceeds {MAX_STACK_BYTES}B")


class HookRegistry:
    """Attachment table mapping hook-point names to verified programs.

    Hook names follow kernel conventions: ``sys_enter_read``,
    ``sys_exit_sendmsg`` (tracepoints/kprobes), ``uprobe:ssl_write`` /
    ``uretprobe:ssl_write`` (user-space probes), ``coroutine_create``.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self._hooks: dict[str, list[BPFProgram]] = {}
        #: Clock source for firing-time rate limiters; a registry built
        #: without one (bare unit tests) cannot host throttled programs.
        self._sim = sim
        self.total_firings = 0
        #: Firings refused by a program's token bucket since boot.
        self.total_throttled = 0
        #: Cumulative kernel time charged across all firings, ns — the
        #: numerator of the overhead-vs-completeness curve.
        self.total_cost_ns = 0.0
        #: Programs refused by the verifier since boot (observability of
        #: the safety mechanism itself).
        self.verifier_rejections = 0

    def attach(self, hook_name: str, program: BPFProgram) -> None:
        """Verify and attach *program* to *hook_name* (in-flight, §3.2.2).

        The verifier runs with the hook type derived from the attach point
        (tracepoint / kprobe / uprobe / uretprobe), so helper whitelists
        are enforced per hook type.
        """
        try:
            verify_program(program, hook_type_of(hook_name))
        except VerifierError:
            self.verifier_rejections += 1
            raise
        self._hooks.setdefault(hook_name, []).append(program)

    def detach(self, hook_name: str, program: BPFProgram) -> None:
        """Remove *program* from *hook_name*.

        The attach point itself is pruned once its last program is gone,
        so iteration over attach points never reports stale hooks.
        """
        programs = self._hooks.get(hook_name)
        if programs is None:
            return
        if program in programs:
            programs.remove(program)
        if not programs:
            del self._hooks[hook_name]

    def attached(self, hook_name: str) -> list[BPFProgram]:
        """Programs currently attached to *hook_name*."""
        return list(self._hooks.get(hook_name, ()))

    def attach_points(self) -> list[str]:
        """Hook names that currently have at least one program."""
        return sorted(self._hooks)

    def has_hook(self, hook_name: str) -> bool:
        """Whether any program is attached to *hook_name*."""
        return bool(self._hooks.get(hook_name))

    def fire(self, hook_name: str, context: Any) -> float:
        """Run every program attached to *hook_name*.

        Returns the total kernel-time cost in nanoseconds.  Runtime faults
        inside a program are contained (counted on the program, swallowed)
        — an eBPF program cannot crash the kernel.

        A program carrying a :class:`TokenBucket` is consulted before it
        runs: on refusal only the early-exit cost (map lookup + bail) is
        charged and the handler is skipped — the firing-time half of the
        agent's overload self-protection.
        """
        programs = self._hooks.get(hook_name)
        if not programs:
            return 0.0
        self.total_firings += len(programs)
        cost_ns = 0.0
        for program in programs:
            limiter = program.rate_limiter
            if limiter is not None and not limiter.allow(
                    self._sim.now):  # lint: ok — throttled programs only
                program.throttled += 1
                self.total_throttled += 1
                cost_ns += (EMPTY_PROGRAM_LATENCY_NS
                            + THROTTLE_EXIT_INSTRUCTIONS
                            * PER_INSTRUCTION_LATENCY_NS)
                continue
            cost_ns += program.cost_ns
            try:
                program.handler(context)
            except Exception:  # noqa: BLE001 - containment is the contract
                program.runtime_faults += 1
        self.total_cost_ns += cost_ns
        return cost_ns


class PerfBuffer:
    """Kernel→user-space ring buffer (step ⑩ of Figure 5).

    A bounded queue: the kernel side submits records without ever blocking;
    when user space falls behind, records are dropped and counted, exactly
    like a real perf buffer under overload.
    """

    def __init__(self, sim: Simulator, capacity: int = 65536,
                 name: str = "perf"):
        self._queue = Queue(sim, capacity=capacity, name=name)
        self.capacity = capacity
        #: Deepest simultaneous occupancy ever reached (in records).
        self.high_water = 0
        #: Drops attributed to the submitting hook (e.g. the syscall
        #: ABI), so overload shows *which* hook overran the buffer
        #: instead of one global count.
        self.drops_by_source: dict[str, int] = {}

    def submit(self, record: Any, source: str = "") -> bool:
        """Kernel side: enqueue a record.  Returns False if dropped.

        *source* names the submitting hook for drop attribution.
        """
        if self._queue.put(record):
            depth = len(self._queue)
            if depth > self.high_water:
                self.high_water = depth
            return True
        if source:
            self.drops_by_source[source] = \
                self.drops_by_source.get(source, 0) + 1
        return False

    def get(self):
        """User side: event delivering the next record."""
        return self._queue.get()

    def drain(self) -> list[Any]:
        """User side: take everything currently buffered."""
        return self._queue.drain()

    def drain_into(self, out: list) -> int:
        """User side: append everything buffered to *out*; returns the
        count.  Lets the agent's poll loop reuse one event list instead
        of allocating per drain cycle."""
        return self._queue.drain_into(out)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def dropped(self) -> int:
        """Records dropped due to overflow."""
        return self._queue.dropped

    @property
    def occupancy(self) -> float:
        """Current fill fraction in [0, 1] — the overload controller's
        pressure signal."""
        return len(self._queue) / self.capacity

    @property
    def total_submitted(self) -> int:
        """Records successfully submitted so far."""
        return self._queue.total_put

    def close(self) -> None:
        """Close and release the resource."""
        self._queue.close()
