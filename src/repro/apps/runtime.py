"""Microservice component runtime.

A :class:`Component` is one deployable service: it owns an OS process on a
pod (or directly on a node), listens on a port, and serves requests with a
pool of worker threads or, in ``runtime="coroutines"`` mode, with
goroutine-style coroutines multiplexed on one thread.

Components are *unaware of tracing*.  When an intrusive baseline tracer is
attached (the Jaeger/Zipkin comparators of §5.4), the HTTP dispatch path
explicitly calls into it — which is precisely the source-modification the
paper's intrusive category requires and DeepFlow avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.process import Coroutine, OSProcess, Thread
from repro.network.topology import Node, Pod
from repro.protocols import http1


@dataclass
class Request:
    """A decoded HTTP request as seen by handlers."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""


@dataclass
class Response:
    """What a handler returns."""

    status_code: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


class Component:
    """Base class: raw request/response service over one listening port."""

    def __init__(self, name: str, node: Node, port: int,
                 pod: Optional[Pod] = None, *,
                 runtime: str = "threads",
                 ingress_abi: str = "read",
                 egress_abi: str = "write",
                 service_time: float = 0.0):
        if runtime not in ("threads", "coroutines"):
            raise ValueError(f"unknown runtime {runtime!r}")
        self.name = name
        self.node = node
        self.pod = pod
        self.port = port
        self.runtime = runtime
        self.ingress_abi = ingress_abi
        self.egress_abi = egress_abi
        self.service_time = service_time
        self.kernel: Kernel = node.kernel
        self.sim = self.kernel.sim
        self.ip = pod.ip if pod is not None else node.ip
        self.process: Optional[OSProcess] = None
        self.running = False
        self.requests_handled = 0
        #: Teardown closes the kernel refused (:func:`close_quietly`):
        #: accepted connections plus their workers' pooled ones.
        self.close_errors = 0
        self._main_thread: Optional[Thread] = None
        self._acceptor_coroutine: Optional[Coroutine] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start serving (spawns the accept loop)."""
        if self.running:
            raise RuntimeError(f"{self.name} already started")
        self.process = self.kernel.create_process(self.name, self.ip)
        self._main_thread = self.kernel.create_thread(self.process)
        listener = self.kernel.listen(self.process, self.port)
        self.running = True
        if self.runtime == "coroutines":
            self._acceptor_coroutine = self.kernel.create_coroutine(
                self._main_thread)
        self.sim.spawn(self._accept_loop(listener),
                       name=f"{self.name}:accept")

    def stop(self) -> None:
        """Stop all components of this deployment."""
        self.running = False
        self.kernel.network.unregister_listener(self.ip, self.port)

    def _accept_loop(self, listener) -> Generator:
        while self.running:
            fd = yield from self.kernel.accept(self._main_thread, listener)
            if self.runtime == "threads":
                worker = self.kernel.create_thread(self.process)
                self.sim.spawn(self._serve(worker, fd, None),
                               name=f"{self.name}:conn")
            else:
                coroutine = self.kernel.create_coroutine(
                    self._main_thread, parent=self._acceptor_coroutine)
                self.sim.spawn(
                    self._serve(self._main_thread, fd, coroutine),
                    name=f"{self.name}:conn")

    # -- connection serving --------------------------------------------------

    def _enter(self, thread: Thread, coroutine: Optional[Coroutine]) -> None:
        """Schedule this worker's coroutine onto the thread (if any)."""
        if coroutine is not None:
            thread.current_coroutine = coroutine

    def _serve(self, thread: Thread, fd: int,
               coroutine: Optional[Coroutine]) -> Generator:
        worker = WorkerContext(self, thread, coroutine)
        buffer = b""
        try:
            while self.running:
                length = self.frame_length(buffer)
                while length is None:
                    self._enter(thread, coroutine)
                    data = yield from self.kernel.recv_abi(
                        self.ingress_abi, thread, fd)
                    if not data:
                        return
                    buffer += data
                    length = self.frame_length(buffer)
                request, buffer = buffer[:length], buffer[length:]
                self.requests_handled += 1
                reply = yield from self.handle_payload(worker, request)
                if reply is None:
                    return
                self._enter(thread, coroutine)
                yield from self.kernel.send_abi(self.egress_abi, thread,
                                                fd, reply)
        except (ConnectionResetError, BrokenPipeError, ConnectionError):
            return
        finally:
            worker.close_pool()
            self._enter(thread, coroutine)
            self.close_errors += (worker.close_errors
                                  + close_quietly(self.kernel, thread, fd))

    # -- to override ----------------------------------------------------

    def frame_length(self, buffer: bytes) -> Optional[int]:
        """Byte length of the first complete request in *buffer*, or
        None while more must be read (override per protocol).

        Pipelined clients may coalesce several requests into one read;
        the default takes whatever has arrived as one request
        (single-message protocols), while HTTP frames at the message
        boundary so the remainder is served next iteration.
        """
        return len(buffer) or None

    def handle_payload(self, worker: "WorkerContext",
                       data: bytes) -> Generator:
        """Process one request; returns response bytes (or None to close)."""
        raise NotImplementedError
        yield  # pragma: no cover


class WorkerContext:
    """Per-connection worker state: thread, coroutine, connection pool."""

    def __init__(self, component: Component, thread: Thread,
                 coroutine: Optional[Coroutine]):
        self.component = component
        self.kernel = component.kernel
        self.sim = component.sim
        self.thread = thread
        self.coroutine = coroutine
        self.current_app_span = None  # set by intrusive tracers only
        self._pool: dict[tuple[str, int], int] = {}
        #: Pooled-connection closes the kernel refused.
        self.close_errors = 0

    def _enter(self) -> None:
        if self.coroutine is not None:
            self.thread.current_coroutine = self.coroutine

    # -- handler utilities ----------------------------------------------

    def work(self, duration: float) -> Generator:
        """Simulated computation (never yields the CPU to the network)."""
        if duration > 0:
            yield duration
        return None

    def connect(self, ip: str, port: int) -> Generator:
        """Pooled connection to (ip, port); returns the fd."""
        key = (ip, port)
        fd = self._pool.get(key)
        if fd is not None:
            return fd
        self._enter()
        fd = yield from self.kernel.connect(self.thread, ip, port)
        self._pool[key] = fd
        return fd

    def drop_connection(self, ip: str, port: int) -> None:
        """Close and forget the pooled connection to (ip, port)."""
        key = (ip, port)
        fd = self._pool.pop(key, None)
        if fd is not None:
            self.close_errors += close_quietly(self.kernel, self.thread,
                                               fd)

    def call_raw(self, ip: str, port: int, payload: bytes,
                 complete: Callable[[bytes], bool] = lambda _b: True,
                 chunk_size: int = 0) -> Generator:
        """Send *payload*, read one reply.  Optionally chunk the send to
        exercise multi-syscall messages."""
        component = self.component
        fd = yield from self.connect(ip, port)
        chunks = ([payload] if not chunk_size else
                  [payload[i:i + chunk_size]
                   for i in range(0, len(payload), chunk_size)])
        try:
            for chunk in chunks:
                self._enter()
                yield from self.kernel.send_abi(component.egress_abi,
                                                self.thread, fd, chunk)
            buffer = b""
            while True:
                self._enter()
                data = yield from self.kernel.recv_abi(
                    component.ingress_abi, self.thread, fd)
                if not data:
                    raise ConnectionError(f"{ip}:{port} closed mid-reply")
                buffer += data
                if complete(buffer):
                    return buffer
        except (ConnectionResetError, BrokenPipeError):
            self.drop_connection(ip, port)
            raise

    def call_http(self, ip: str, port: int, method: str, path: str,
                  headers: Optional[dict[str, str]] = None,
                  body: bytes = b"", chunk_size: int = 0) -> Generator:
        """HTTP/1.1 request/response over a pooled connection."""
        payload = http1.encode_request(method, path, headers=headers,
                                       body=body, host=f"{ip}:{port}")
        raw = yield from self.call_raw(ip, port, payload,
                                       complete=http_message_complete,
                                       chunk_size=chunk_size)
        return decode_http_response(raw)

    def close_pool(self) -> None:
        """Close every pooled connection."""
        for fd in self._pool.values():
            self._enter()
            self.close_errors += close_quietly(self.kernel, self.thread,
                                               fd)
        self._pool.clear()


def close_quietly(kernel: Kernel, thread: Thread, fd: int) -> int:
    """Close *fd* on a teardown path, where it may already be gone.

    The one error ``Kernel.close`` raises there is :class:`KernelError`
    (bad or already-closed fd): that is swallowed and reported as 1, for
    the owner to add to its ``close_errors`` count, so "already torn
    down" stays visible.  Returns 0 on a clean close; anything else
    propagates.
    """
    try:
        kernel.close(thread, fd)
    except KernelError:
        return 1
    return 0


def http_message_complete(buffer: bytes) -> bool:
    """True when *buffer* holds one complete HTTP/1.1 message."""
    return http_message_length(buffer) is not None


def http_message_length(buffer: bytes) -> Optional[int]:
    """Byte length of the first complete HTTP/1.1 message, or None."""
    head, separator, body = buffer.partition(b"\r\n\r\n")
    if not separator:
        return None
    expected = 0
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            expected = int(line.split(b":", 1)[1].strip())
            break
    if len(body) < expected:
        return None
    return len(head) + len(separator) + expected


def decode_http_response(raw: bytes) -> Response:
    """Decode raw bytes into a Response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii", errors="replace").split("\r\n")
    status_code = int(lines[0].split(" ")[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return Response(status_code=status_code, headers=headers, body=body)


def decode_http_request(raw: bytes) -> Request:
    """Decode raw bytes into a Request."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii", errors="replace").split("\r\n")
    method, path, _version = lines[0].split(" ")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return Request(method=method, path=path, headers=headers, body=body)


class HttpService(Component):
    """An HTTP/1.1 component with path-routed handlers.

    Handlers are generators: ``handler(worker, request) -> Response``.
    They may call downstream services through the worker context.  When an
    intrusive tracer is attached (baselines), the dispatch path starts and
    finishes an application span around the handler and injects the
    propagation headers into downstream calls made via
    :meth:`call_downstream`.
    """

    def __init__(self, name: str, node: Node, port: int,
                 pod: Optional[Pod] = None, *, tracer=None, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.tracer = tracer
        self._routes: list[tuple[str, Callable]] = []
        self.fallback_status = 404

    def route(self, prefix: str):
        """Decorator registering a handler for a path prefix."""

        def register(handler: Callable) -> Callable:
            """Register a handler."""
            self._routes.append((prefix, handler))
            return handler

        return register

    def _find_handler(self, path: str) -> Optional[Callable]:
        for prefix, handler in self._routes:
            if path.startswith(prefix):
                return handler
        return None

    frame_length = staticmethod(http_message_length)

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        request = decode_http_request(data)
        span = None
        if self.tracer is not None:
            span = self.tracer.start_server_span(self, request.headers,
                                                 f"{self.name}:{request.path}")
            yield self.tracer.overhead
            worker.current_app_span = span
        try:
            handler = self._find_handler(request.path)
            if handler is None:
                response = Response(status_code=self.fallback_status)
            else:
                if self.service_time:
                    yield from worker.work(self.service_time)
                response = yield from handler(worker, request)
        except (ConnectionResetError, BrokenPipeError, ConnectionError):
            response = Response(status_code=502)
        finally:
            if span is not None:
                yield self.tracer.overhead
        if span is not None:
            status = "error" if response.status_code >= 400 else "ok"
            self.tracer.finish_span(span, status=status,
                                    status_code=response.status_code)
            worker.current_app_span = None
        return http1.encode_response(response.status_code,
                                     headers=response.headers,
                                     body=response.body)

    def call_downstream(self, worker: WorkerContext, ip: str, port: int,
                        method: str, path: str,
                        headers: Optional[dict[str, str]] = None,
                        body: bytes = b"") -> Generator:
        """Downstream HTTP call; intrusive tracers wrap it in a client
        span and inject their propagation headers."""
        headers = dict(headers or {})
        span = None
        if self.tracer is not None:
            parent = getattr(worker, "current_app_span", None)
            span = self.tracer.start_client_span(
                self, parent, f"{self.name}->{ip}:{port}{path}")
            headers.update(self.tracer.inject(span))
            yield self.tracer.overhead
        try:
            response = yield from worker.call_http(ip, port, method, path,
                                                   headers=headers,
                                                   body=body)
        except (ConnectionResetError, BrokenPipeError, ConnectionError):
            if span is not None:
                self.tracer.finish_span(span, status="error",
                                        status_code=502)
                yield self.tracer.overhead
            raise
        if span is not None:
            status = "error" if response.status_code >= 400 else "ok"
            self.tracer.finish_span(span, status=status,
                                    status_code=response.status_code)
            yield self.tracer.overhead
        return response
