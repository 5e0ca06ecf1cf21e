"""The simulated kernel: processes, fd tables, syscalls, hook dispatch.

One :class:`Kernel` exists per host (container node / VM / physical
machine), mirroring the deployment unit of the DeepFlow Agent.  Application
threads invoke syscalls as generator methods (``yield from kernel.read(...)``)
so that blocking semantics, hook latencies, and scheduling all play out on
the simulation clock.

The ten instrumented ABIs of Table 3 funnel into two generic paths,
:meth:`Kernel._sys_ingress` and :meth:`Kernel._sys_egress`; each fires the
``sys_enter_*``/``sys_exit_*`` hook pair around the operation, exactly as in
Figure 5 (steps ①–⑧).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.kernel.ebpf import HookRegistry
from repro.kernel.process import Coroutine, OSProcess, Thread
from repro.kernel.sockets import FiveTuple, Socket, SocketState
from repro.kernel.syscalls import (
    HOOK_NAMES,
    CoroutineEvent,
    Direction,
    SocketCloseEvent,
    SyscallContext,
    UserProbeRecord,
    abi_direction,
)
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.transport import Network

#: Inherent cost of entering+leaving the kernel for one syscall, ns.
SYSCALL_BASE_NS = 1200.0

#: Cost of the uprobe/uretprobe trap mechanism itself, ns (§5.1: the
#: extension hooks "themselves incur a latency of 6153 ns").
UPROBE_TRAP_NS = 6153.0

#: Bytes of payload copied out to the hook context (DeepFlow truncates
#: payloads; protocol headers fit comfortably).
PAYLOAD_CAPTURE_BYTES = 4096

NS = 1e-9

INGRESS = Direction.INGRESS
EGRESS = Direction.EGRESS


class KernelError(Exception):
    """Bad syscall usage (unknown fd, double listen, ...)."""


class Kernel:
    """Kernel instance for one host."""

    def __init__(self, sim: Simulator, host_name: str,
                 network: Optional["Network"] = None):
        self.sim = sim
        self.host_name = host_name
        self.network = network
        self.hooks = HookRegistry(sim)
        self.processes: dict[int, OSProcess] = {}
        self.sockets: dict[int, Socket] = {}
        self._fd_tables: dict[int, dict[int, Socket]] = {}
        self._listeners: dict[tuple[str, int], "ListenQueue"] = {}
        self._next_pid = 100
        self._next_tid = 1000
        self._next_coroutine_id = 1
        self._next_fd: dict[int, int] = {}
        self._next_port = 40000
        self.syscall_count = 0

    # -- process management ----------------------------------------------

    def create_process(self, name: str, ip: str) -> OSProcess:
        """Create an OS process with a fresh pid."""
        pid = self._next_pid
        self._next_pid += 1
        process = OSProcess(pid, name, ip)
        self.processes[pid] = process
        self._fd_tables[pid] = {}
        self._next_fd[pid] = 3
        return process

    def create_thread(self, process: OSProcess) -> Thread:
        """Create a kernel thread in *process*."""
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid, process)
        process.threads.append(thread)
        return thread

    def create_coroutine(self, thread: Thread,
                         parent: Optional[Coroutine] = None) -> Coroutine:
        """Create a coroutine, firing the ``coroutine_create`` hook.

        DeepFlow monitors these creations to build the parent-child
        pseudo-thread structure (§3.3.1).
        """
        coroutine_id = self._next_coroutine_id
        self._next_coroutine_id += 1
        coroutine = Coroutine(coroutine_id, thread, parent)
        thread.process.coroutines.append(coroutine)
        self.hooks.fire("coroutine_create", CoroutineEvent(
            kind="create",
            pid=thread.pid,
            tid=thread.tid,
            coroutine_id=coroutine_id,
            parent_coroutine_id=parent.coroutine_id if parent else None,
            timestamp=self.sim.now,
            host_name=self.host_name,
        ))
        return coroutine

    # -- socket management -------------------------------------------------

    def _alloc_fd(self, pid: int) -> int:
        fd = self._next_fd[pid]
        self._next_fd[pid] = fd + 1
        return fd

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _install_socket(self, process: OSProcess, sock: Socket) -> int:
        fd = self._alloc_fd(process.pid)
        self._fd_tables[process.pid][fd] = sock
        self.sockets[sock.socket_id] = sock
        return fd

    def socket_for_fd(self, thread: Thread, fd: int) -> Socket:
        """Resolve *fd* in the thread's process; raises on bad fd."""
        table = self._fd_tables.get(thread.pid)
        sock = None if table is None else table.get(fd)
        if sock is None:
            raise KernelError(
                f"pid {thread.pid} ({thread.process.name}): bad fd {fd}")
        return sock

    def listen(self, process: OSProcess, port: int) -> "ListenQueue":
        """Bind a listener on (process ip, port) and register it globally."""
        key = (process.ip, port)
        if key in self._listeners:
            raise KernelError(f"address already in use: {key}")
        if self.network is None:
            raise KernelError("kernel is not attached to a network")
        listener = ListenQueue(self, process, port)
        self._listeners[key] = listener
        self.network.register_listener(process.ip, port, self)
        return listener

    def create_server_socket(self,
                             client_tuple: FiveTuple
                             ) -> Optional[Socket]:
        """Called by the network when a connection reaches a local listener.

        Returns the new established server-side socket, or None if nothing
        is listening (connection refused).
        """
        key = (client_tuple.dst_ip, client_tuple.dst_port)
        listener = self._listeners.get(key)
        if listener is None:
            return None
        sock = Socket(self.sim, self.network.alloc_socket_id(),
                      client_tuple.reversed(), listener.process.pid)
        listener.enqueue(self._install_socket(listener.process, sock), sock)
        return sock

    def connect(self, thread: Thread, dst_ip: str,
                dst_port: int) -> Generator:
        """Establish a TCP connection; returns the client fd.

        Completes after one path round-trip (the simulated handshake).
        Raises ConnectionRefusedError when nothing listens on the target.
        """
        if self.network is None:
            raise KernelError("kernel is not attached to a network")
        process = thread.process
        five_tuple = FiveTuple(process.ip, self._alloc_port(),
                               dst_ip, dst_port)
        sock = Socket(self.sim, self.network.alloc_socket_id(),
                      five_tuple, process.pid)
        fd = self._install_socket(process, sock)
        yield from self.network.establish(sock)
        return fd

    def accept(self, thread: Thread, listener: "ListenQueue") -> Generator:
        """Block until a connection arrives; returns the new fd."""
        # The fd was installed when the connection arrived and travels
        # with the socket through the backlog.
        fd, sock = yield listener.queue.get()
        if self._fd_tables[listener.process.pid].get(fd) is not sock:
            raise KernelError("accepted socket missing from fd table")
        return fd

    def close(self, thread: Thread, fd: int) -> None:
        """Close and release the resource."""
        sock = self.socket_for_fd(thread, fd)
        sock.close()
        del self._fd_tables[thread.pid][fd]
        self.hooks.fire("socket_close", SocketCloseEvent(
            pid=thread.pid, tid=thread.tid, socket_id=sock.socket_id,
            five_tuple=sock.five_tuple, timestamp=self.sim.now,
            host_name=self.host_name))

    # -- the ten instrumented ABIs (Table 3) --------------------------------

    def read(self, thread, fd, max_bytes=65536):
        """read(2): blocking ingress syscall."""
        return self._sys_ingress(thread, "read", fd, max_bytes)

    def readv(self, thread, fd, max_bytes=65536):
        """readv(2): blocking ingress syscall."""
        return self._sys_ingress(thread, "readv", fd, max_bytes)

    def recvfrom(self, thread, fd, max_bytes=65536):
        """recvfrom(2): blocking ingress syscall."""
        return self._sys_ingress(thread, "recvfrom", fd, max_bytes)

    def recvmsg(self, thread, fd, max_bytes=65536):
        """recvmsg(2): blocking ingress syscall."""
        return self._sys_ingress(thread, "recvmsg", fd, max_bytes)

    def recvmmsg(self, thread, fd, max_bytes=65536):
        """recvmmsg(2): blocking ingress syscall."""
        return self._sys_ingress(thread, "recvmmsg", fd, max_bytes)

    def write(self, thread, fd, data):
        """write(2): egress syscall."""
        return self._sys_egress(thread, "write", fd, data)

    def writev(self, thread, fd, data):
        """writev(2): egress syscall."""
        return self._sys_egress(thread, "writev", fd, data)

    def sendto(self, thread, fd, data):
        """sendto(2): egress syscall."""
        return self._sys_egress(thread, "sendto", fd, data)

    def sendmsg(self, thread, fd, data):
        """sendmsg(2): egress syscall."""
        return self._sys_egress(thread, "sendmsg", fd, data)

    def sendmmsg(self, thread, fd, data):
        """sendmmsg(2): egress syscall."""
        return self._sys_egress(thread, "sendmmsg", fd, data)

    def recv_abi(self, abi: str, thread: Thread, fd: int,
                 max_bytes: int = 65536) -> Generator:
        """Dispatch an ingress ABI by name (used by configurable runtimes)."""
        if abi_direction(abi) is not Direction.INGRESS:
            raise KernelError(f"{abi} is not an ingress ABI")
        return self._sys_ingress(thread, abi, fd, max_bytes)

    def send_abi(self, abi: str, thread: Thread, fd: int,
                 data: bytes) -> Generator:
        """Dispatch an egress ABI by name."""
        if abi_direction(abi) is not Direction.EGRESS:
            raise KernelError(f"{abi} is not an egress ABI")
        return self._sys_egress(thread, abi, fd, data)

    # -- generic syscall paths ----------------------------------------------

    def _sys_ingress(self, thread: Thread, abi: str, fd: int,
                     max_bytes: int) -> Generator:
        """Blocking receive.  Returns the bytes read (b'' at EOF).

        Raises ConnectionResetError if the connection was reset — after
        firing the exit hook with a negative return value, so the agent
        observes the reset too.
        """
        sock = self.socket_for_fd(thread, fd)
        self.syscall_count += 1
        # Identity is read once per syscall and both contexts are built
        # positionally (SyscallContext field order).  The coroutine id is
        # a snapshot: by the time a blocking read returns, the thread
        # pointer may name a different coroutine — only a thread that
        # entered outside any coroutine reports the one current at exit.
        pid = thread.pid
        tid = thread.tid
        coroutine_id = thread.coroutine_id
        process_name = thread.process.name
        socket_id = sock.socket_id
        five_tuple = sock.five_tuple
        host_name = self.host_name
        hooks = self.hooks
        sim = self.sim
        enter_hook, exit_hook = HOOK_NAMES[abi]
        half_ns = SYSCALL_BASE_NS / 2
        yield (half_ns + hooks.fire(enter_hook, SyscallContext(
            pid, tid, coroutine_id, process_name, socket_id, five_tuple, 0,
            sim.now, INGRESS, True, abi, 0, b"", 0, host_name))) * NS
        while not sock.readable:
            yield sock.wait_readable()
        if coroutine_id is None:
            coroutine_id = thread.coroutine_id
        try:
            seq, data = sock.read_available(max_bytes)
        except ConnectionResetError:
            yield (half_ns + hooks.fire(exit_hook, SyscallContext(
                pid, tid, coroutine_id, process_name, socket_id, five_tuple,
                0, sim.now, INGRESS, False, abi, 0, b"", -104,
                host_name))) * NS
            raise
        size = len(data)
        yield (half_ns + hooks.fire(exit_hook, SyscallContext(
            pid, tid, coroutine_id, process_name, socket_id, five_tuple, seq,
            sim.now, INGRESS, False, abi, size,
            data[:PAYLOAD_CAPTURE_BYTES], size, host_name))) * NS
        return data

    def _sys_egress(self, thread: Thread, abi: str, fd: int,
                    data: bytes) -> Generator:
        """Send *data*; returns the byte count written.

        Raises BrokenPipeError on a closed/reset connection.
        """
        sock = self.socket_for_fd(thread, fd)
        self.syscall_count += 1
        if sock.state in (SocketState.CLOSED, SocketState.RESET):
            raise BrokenPipeError(str(sock.five_tuple))
        size = len(data)
        seq = sock.reserve_tx(size)
        # One identity read, one payload slice, two positional contexts —
        # see _sys_ingress.
        pid = thread.pid
        tid = thread.tid
        coroutine_id = thread.coroutine_id
        process_name = thread.process.name
        socket_id = sock.socket_id
        five_tuple = sock.five_tuple
        host_name = self.host_name
        hooks = self.hooks
        sim = self.sim
        enter_hook, exit_hook = HOOK_NAMES[abi]
        half_ns = SYSCALL_BASE_NS / 2
        payload = data[:PAYLOAD_CAPTURE_BYTES]
        yield (half_ns + hooks.fire(enter_hook, SyscallContext(
            pid, tid, coroutine_id, process_name, socket_id, five_tuple, seq,
            sim.now, EGRESS, True, abi, size, payload, 0, host_name))) * NS
        if sock.flow is not None:
            sock.flow.send(sock, seq, data)
        if coroutine_id is None:
            coroutine_id = thread.coroutine_id
        yield (half_ns + hooks.fire(exit_hook, SyscallContext(
            pid, tid, coroutine_id, process_name, socket_id, five_tuple, seq,
            sim.now, EGRESS, False, abi, size, payload, size,
            host_name))) * NS
        return size

    # -- uprobe extension points ---------------------------------------------

    def user_function(self, thread: Thread, function: str, payload: bytes,
                      direction: Direction, fd: int) -> Generator:
        """Execute an instrumentable user-space function (e.g. ssl_write).

        If a uprobe/uretprobe is attached the trap cost is charged and the
        hook observes the *plaintext* payload — this is how DeepFlow sees
        pre-TLS data (§3.2.1).
        """
        sock = self.socket_for_fd(thread, fd)
        process_name = thread.process.name
        enter_hook = f"uprobe:{process_name}:{function}"
        exit_hook = f"uretprobe:{process_name}:{function}"
        enter_time = self.sim.now
        cost_ns = 0.0
        record = UserProbeRecord(
            pid=thread.pid, tid=thread.tid,
            coroutine_id=thread.coroutine_id,
            process_name=process_name, function=function,
            enter_time=enter_time, exit_time=enter_time,
            payload=payload[:PAYLOAD_CAPTURE_BYTES],
            socket_id=sock.socket_id, direction=direction,
            host_name=self.host_name)
        if self.hooks.has_hook(enter_hook):
            cost_ns += UPROBE_TRAP_NS + self.hooks.fire(enter_hook, record)
        if self.hooks.has_hook(exit_hook):
            record.exit_time = self.sim.now
            cost_ns += UPROBE_TRAP_NS + self.hooks.fire(exit_hook, record)
        if cost_ns:
            yield cost_ns * NS
        return None


class ListenQueue:
    """Accept backlog for one listening (ip, port)."""

    def __init__(self, kernel: Kernel, process: OSProcess, port: int):
        from repro.sim.queue import Queue  # local import, no cycle
        self.kernel = kernel
        self.process = process
        self.port = port
        self.queue = Queue(kernel.sim, name=f"listen:{process.ip}:{port}")

    def enqueue(self, fd: int, sock: Socket) -> None:
        """Append an accepted socket, with its installed fd, to the backlog."""
        self.queue.put((fd, sock))
