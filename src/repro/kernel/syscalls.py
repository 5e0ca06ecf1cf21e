"""The instrumented syscall ABIs and the records captured at hook time.

Table 3 of the paper lists the ten application binary interfaces that
DeepFlow instruments.  They are reproduced verbatim here; everything the
agent observes flows through these (plus the uprobe extension points).

The four categories of information recorded for each ingress/egress call
(§3.2.1) map onto :class:`SyscallContext`:

* program information — ``pid``, ``tid``, ``coroutine_id``, ``process_name``;
* network information — ``socket_id``, ``five_tuple``, ``tcp_seq``;
* tracing information — ``timestamp``, ``direction``;
* system-call information — ``abi``, ``byte_len``, ``payload``, ``ret``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.kernel.sockets import FiveTuple

#: Ingress system-call ABIs (Table 3).
INGRESS_ABIS = ("recvmsg", "recvmmsg", "readv", "read", "recvfrom")

#: Egress system-call ABIs (Table 3).
EGRESS_ABIS = ("sendmsg", "sendmmsg", "writev", "write", "sendto")

#: All ten instrumented ABIs.
ALL_ABIS = INGRESS_ABIS + EGRESS_ABIS

#: ABI → (enter, exit) hook-point names fired by the kernel.
HOOK_NAMES = {abi: (f"sys_enter_{abi}", f"sys_exit_{abi}")
              for abi in ALL_ABIS}


class Direction(enum.Enum):
    """Data direction of a syscall, from the component's point of view."""

    INGRESS = "ingress"
    EGRESS = "egress"


def abi_direction(abi: str) -> Direction:
    """Classify an ABI as ingress or egress (Table 3)."""
    if abi in INGRESS_ABIS:
        return Direction.INGRESS
    if abi in EGRESS_ABIS:
        return Direction.EGRESS
    raise ValueError(f"unknown syscall ABI: {abi}")


@dataclass(slots=True)
class SyscallContext:
    """Snapshot handed to eBPF programs when a hook fires.

    One context is produced at syscall *enter* and a second at *exit*; the
    in-kernel BPF program merges the two via the ``(pid, tid)`` hash map
    (§3.3.1) into a :class:`SyscallRecord`.  The kernel builds two per
    syscall, positionally — field order is part of the contract.
    """

    # program information
    pid: int
    tid: int
    coroutine_id: Optional[int]
    process_name: str
    # network information
    socket_id: int
    five_tuple: FiveTuple
    tcp_seq: int
    # tracing information
    timestamp: float
    direction: Direction
    is_enter: bool
    # system-call information
    abi: str
    byte_len: int = 0
    payload: bytes = b""
    ret: int = 0
    host_name: str = ""


@dataclass(slots=True)
class SyscallRecord:
    """Merged enter+exit data for one syscall — the kernel-side output.

    This is what the in-kernel program enqueues into the perf buffer; the
    user-space agent turns streams of these into *message data* and then
    spans (§3.3.1, Figure 6).  The exit program builds one per syscall,
    positionally — field order is part of the contract.
    """

    pid: int
    tid: int
    coroutine_id: Optional[int]
    process_name: str
    socket_id: int
    five_tuple: FiveTuple
    tcp_seq: int
    enter_time: float
    exit_time: float
    direction: Direction
    abi: str
    byte_len: int
    payload: bytes
    ret: int
    host_name: str = ""
    #: Overload degradation (repro.agent.overload): the payload copy-out
    #: was shed kernel-side.  The association fields above are intact, so
    #: Algorithm 1 still links the span — only the L7 detail is gone.
    payload_shed: bool = False
    #: For shed records: whether this syscall starts a direction run (the
    #: head of a message) rather than continuing one.  Lets user space
    #: keep multi-syscall messages whole without seeing the payload.
    shed_head: bool = False
    #: For shed records: whether the record travels in the flow's request
    #: direction (the first direction seen on the socket).
    shed_is_request: bool = False

    @property
    def duration(self) -> float:
        """Elapsed seconds between start and end."""
        return self.exit_time - self.enter_time


@dataclass(slots=True)
class CoroutineEvent:
    """Kernel-visible coroutine lifecycle event (creation/exit).

    DeepFlow monitors coroutine creation to build its pseudo-thread
    structure (§3.3.1); the agent consumes these events to map coroutines
    onto pseudo-threads.
    """

    kind: str  # "create" | "exit"
    pid: int
    tid: int
    coroutine_id: int
    parent_coroutine_id: Optional[int]
    timestamp: float
    host_name: str = ""


@dataclass(slots=True)
class SocketCloseEvent:
    """Kernel-visible socket teardown, fired on ``close(2)``.

    Lets the agent promptly fail any request still open on the socket
    instead of waiting for the time-window flush.
    """

    pid: int
    tid: int
    socket_id: int
    five_tuple: FiveTuple
    timestamp: float
    host_name: str = ""


@dataclass(slots=True)
class UserProbeRecord:
    """Record emitted by a uprobe/uretprobe extension hook (§3.2.1).

    Used for example to lift the plaintext payload out of ``ssl_read`` /
    ``ssl_write`` before TLS encryption.
    """

    pid: int
    tid: int
    coroutine_id: Optional[int]
    process_name: str
    function: str
    enter_time: float
    exit_time: float
    payload: bytes
    socket_id: int
    direction: Direction
    host_name: str = ""
