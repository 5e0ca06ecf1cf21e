"""wrk2-style constant-throughput load generator.

Like wrk2 [133], requests are scheduled on a fixed cadence *independently
of completions*, and latency is measured from the scheduled start time —
correcting for coordinated omission, so a stalling server inflates the
recorded latency instead of silently thinning the load.

Two drive modes:

* the default closed-ish loop — each connection pipelines one request at
  a time and waits for its response (still cadence-scheduled);
* :meth:`LoadGenerator.ramp` — fully *open-loop*: senders emit requests
  on a linearly accelerating schedule without ever waiting for
  responses, and dedicated readers drain and match responses FIFO.
  Overload experiments need this mode: a closed loop self-throttles the
  moment the target saturates, while the ramp keeps pushing and
  deterministically overruns the agent under test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.apps.runtime import (
    close_quietly,
    decode_http_response,
    http_message_complete,
    http_message_length,
)
from repro.network.topology import Node, Pod
from repro.protocols import http1


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    offered_rate: float
    duration: float
    sent: int = 0
    completed: int = 0
    errors: int = 0
    #: Teardown closes the kernel refused (fd already gone).
    close_errors: int = 0
    #: Wall time actually taken to finish every scheduled request; under
    #: overload this exceeds *duration* (the backlog drains late).
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Achieved completions per second of actual elapsed time."""
        window = self.elapsed or self.duration
        if window <= 0:
            return 0.0
        return self.completed / window

    def percentile(self, p: float) -> float:
        """The *p*-th percentile latency."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[index]

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50)

    @property
    def p90(self) -> float:
        """90th-percentile latency."""
        return self.percentile(90)

    @property
    def p99(self) -> float:
        """99th-percentile latency."""
        return self.percentile(99)

    @property
    def mean_latency(self) -> float:
        """Arithmetic mean latency."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class LoadGenerator:
    """Drives an HTTP target at a constant offered rate."""

    def __init__(self, node: Node, target_ip: str, target_port: int, *,
                 rate: float, duration: float, connections: int = 8,
                 method: str = "GET", path: str = "/",
                 headers: Optional[dict[str, str]] = None,
                 pod: Optional[Pod] = None,
                 name: str = "wrk2",
                 ingress_abi: str = "read", egress_abi: str = "write"):
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        self.node = node
        self.kernel = node.kernel
        self.sim = node.kernel.sim
        self.target = (target_ip, target_port)
        self.rate = rate
        self.duration = duration
        self.connections = connections
        self.method = method
        self.path = path
        self.headers = dict(headers or {})
        self.name = name
        self.ip = pod.ip if pod is not None else node.ip
        self.ingress_abi = ingress_abi
        self.egress_abi = egress_abi
        self._next_slot = 0
        self._start_time = 0.0
        self._ramp: Optional[tuple[float, float, float]] = None
        self._drain_grace = 2.0

    def ramp(self, start_rps: float, end_rps: float,
             duration: float, *, drain_grace: float = 2.0) \
            -> "LoadGenerator":
        """Switch to open-loop ramp mode: the offered rate rises linearly
        from *start_rps* to *end_rps* over *duration* seconds.

        Senders never wait for responses, so the schedule holds even when
        the target (or the agent observing it) falls over — the overrun
        is deterministic, not negotiated by backpressure.  After the last
        request is sent the run waits up to *drain_grace* seconds for
        in-flight responses, then stops reading.  Returns ``self``.
        """
        if start_rps < 0 or end_rps <= 0 or duration <= 0:
            raise ValueError("need start_rps >= 0, end_rps > 0, "
                             "duration > 0")
        if start_rps == 0 and end_rps == start_rps:
            raise ValueError("ramp needs a positive rate somewhere")
        self._ramp = (start_rps, end_rps, duration)
        self.duration = duration
        self.rate = (start_rps + end_rps) / 2.0
        self._drain_grace = drain_grace
        return self

    def run(self):
        """Spawn the run; the returned process's result is a LoadReport."""
        body = self._run_open() if self._ramp is not None else self._run()
        return self.sim.spawn(body, name=f"{self.name}:run")

    def _run(self) -> Generator:
        report = LoadReport(offered_rate=self.rate, duration=self.duration)
        self._start_time = self.sim.now
        self._next_slot = 0
        process = self.kernel.create_process(self.name, self.ip)
        workers = []
        for _ in range(self.connections):
            thread = self.kernel.create_thread(process)
            workers.append(self.sim.spawn(
                self._connection_loop(thread, report),
                name=f"{self.name}:conn"))
        yield self.sim.all_of([worker.done_event for worker in workers])
        report.elapsed = self.sim.now - self._start_time
        return report

    def _slot_time(self, index: int) -> float:
        """Offset of slot *index* from the run start.

        Constant mode spaces slots evenly; ramp mode inverts the
        cumulative-count integral N(t) = start·t + accel·t²/2 (a closed
        form, so the schedule is exact and deterministic).
        """
        if self._ramp is None:
            return index / self.rate
        start, end, duration = self._ramp
        accel = (end - start) / duration
        if accel == 0.0:
            return index / start
        return (((start * start + 2.0 * accel * index) ** 0.5 - start)
                / accel)

    def _take_slot(self) -> Optional[float]:
        """Next scheduled request start time, or None past the deadline."""
        offset = self._slot_time(self._next_slot)
        if offset >= self.duration:
            return None
        self._next_slot += 1
        return self._start_time + offset

    def _connection_loop(self, thread, report: LoadReport) -> Generator:
        kernel = self.kernel
        fd = None
        payload = http1.encode_request(self.method, self.path,
                                       headers=self.headers,
                                       host=f"{self.target[0]}")
        while True:
            scheduled = self._take_slot()
            if scheduled is None:
                break
            if scheduled > self.sim.now:
                yield scheduled - self.sim.now
            report.sent += 1
            try:
                if fd is None:
                    fd = yield from kernel.connect(thread, *self.target)
                yield from kernel.send_abi(self.egress_abi, thread, fd,
                                           payload)
                buffer = b""
                while True:
                    data = yield from kernel.recv_abi(self.ingress_abi,
                                                      thread, fd)
                    if not data:
                        raise ConnectionError("closed mid-response")
                    buffer += data
                    if http_message_complete(buffer):
                        break
                response = decode_http_response(buffer)
                latency = self.sim.now - scheduled
                report.latencies.append(latency)
                if response.status_code >= 400:
                    report.errors += 1
                else:
                    report.completed += 1
            except (ConnectionError, ConnectionResetError,
                    BrokenPipeError, ConnectionRefusedError):
                report.errors += 1
                if fd is not None:
                    report.close_errors += close_quietly(kernel, thread, fd)
                fd = None
        if fd is not None:
            report.close_errors += close_quietly(kernel, thread, fd)

    # -- open-loop ramp mode ---------------------------------------------

    def _run_open(self) -> Generator:
        """Open-loop drive: per connection, a sender pushes requests on
        the ramp schedule while a dedicated reader drains responses."""
        report = LoadReport(offered_rate=self.rate, duration=self.duration)
        self._start_time = self.sim.now
        self._next_slot = 0
        process = self.kernel.create_process(self.name, self.ip)
        senders = []
        readers = []
        pendings: list[deque] = []
        fds: list[tuple] = []
        for index in range(self.connections):
            # Distinct kernel threads for the send and receive sides, so
            # the (pid, tid) one-syscall-at-a-time rule holds per side.
            send_thread = self.kernel.create_thread(process)
            read_thread = self.kernel.create_thread(process)
            fd = yield from self.kernel.connect(send_thread, *self.target)
            fds.append((send_thread, fd))
            pending: deque = deque()
            pendings.append(pending)
            senders.append(self.sim.spawn(
                self._sender_loop(send_thread, fd, pending, report),
                name=f"{self.name}:send{index}"))
            readers.append(self.sim.spawn(
                self._reader_loop(read_thread, fd, pending, report),
                name=f"{self.name}:read{index}"))
        yield self.sim.all_of([sender.done_event for sender in senders])
        deadline = self.sim.now + self._drain_grace
        while any(pendings) and self.sim.now < deadline:
            yield min(0.05, deadline - self.sim.now)
        for reader in readers:
            reader.kill()
        # Clean close after the drain: every response the server sent has
        # been read, so the close events let observing agents promptly
        # fail any *half-observed* exchange instead of holding it open.
        for thread, fd in fds:
            report.close_errors += close_quietly(self.kernel, thread, fd)
        report.elapsed = self.sim.now - self._start_time
        return report

    def _sender_loop(self, thread, fd, pending: deque,
                     report: LoadReport) -> Generator:
        """Emit requests on the schedule, never waiting for responses."""
        kernel = self.kernel
        payload = http1.encode_request(self.method, self.path,
                                       headers=self.headers,
                                       host=f"{self.target[0]}")
        while True:
            scheduled = self._take_slot()
            if scheduled is None:
                break
            if scheduled > self.sim.now:
                yield scheduled - self.sim.now
            report.sent += 1
            pending.append(scheduled)
            try:
                yield from kernel.send_abi(self.egress_abi, thread, fd,
                                           payload)
            except (ConnectionError, ConnectionResetError,
                    BrokenPipeError, ConnectionRefusedError):
                pending.pop()
                report.errors += 1
                break

    def _reader_loop(self, thread, fd, pending: deque,
                     report: LoadReport) -> Generator:
        """Drain the socket, splitting pipelined responses and matching
        them FIFO against the sender's scheduled start times."""
        kernel = self.kernel
        buffer = b""
        while True:
            try:
                data = yield from kernel.recv_abi(self.ingress_abi,
                                                  thread, fd)
            except (ConnectionError, ConnectionResetError,
                    BrokenPipeError):
                return
            if not data:
                return
            buffer += data
            while True:
                length = http_message_length(buffer)
                if length is None:
                    break
                message = buffer[:length]
                buffer = buffer[length:]
                response = decode_http_response(message)
                if not pending:
                    continue  # unsolicited data; nothing to account
                scheduled = pending.popleft()
                report.latencies.append(self.sim.now - scheduled)
                if response.status_code >= 400:
                    report.errors += 1
                else:
                    report.completed += 1
