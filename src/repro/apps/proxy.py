"""Reverse proxies: Nginx-like ingress and Envoy-like sidecar.

Both generate ``X-Request-ID`` for incoming requests that lack one — their
*original capability* which DeepFlow leverages for cross-thread
intra-component association (§3.3.2) and gateway traversal (Appendix A).

``NginxProxy`` supports ``cross_thread=True``: the upstream call happens
on a different worker thread than the one that accepted the request
(handed over through an in-process queue, which syscall hooks cannot see).
That breaks thread-based systrace association on purpose; only the
X-Request-ID keeps the proxy's server and client spans connected.

The §4.1.1 case study is modelled by :meth:`NginxProxy.inject_fault`:
one backing pod of the ingress misroutes a specific endpoint to 404.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.apps.runtime import (
    Component,
    Response,
    WorkerContext,
    decode_http_request,
    http_message_length,
)
from repro.network.topology import Node, Pod
from repro.protocols import http1
from repro.sim.queue import Queue


class NginxProxy(Component):
    """HTTP reverse proxy with round-robin upstreams per path prefix."""

    def __init__(self, name: str, node: Node, port: int,
                 pod: Optional[Pod] = None, *, cross_thread: bool = False,
                 proxy_time: float = 0.0002, **kwargs):
        super().__init__(name, node, port, pod, **kwargs)
        self.cross_thread = cross_thread
        self.proxy_time = proxy_time
        self._routes: list[tuple[str, list[tuple[str, int]]]] = []
        self._rr: dict[str, int] = {}
        self._fault_routes: dict[str, int] = {}
        self._xreq_counter = 0
        self._handoff: Optional[Queue] = None

    def add_route(self, prefix: str,
                  upstreams: list[tuple[str, int]]) -> None:
        """Route *prefix* to the given upstream endpoints."""
        self._routes.append((prefix, list(upstreams)))
        self._rr[prefix] = 0

    def inject_fault(self, prefix: str, status_code: int = 404) -> None:
        """Make this proxy instance misroute *prefix* (the §4.1.1 bug)."""
        self._fault_routes[prefix] = status_code

    def clear_faults(self) -> None:
        """Remove every fault from this device."""
        self._fault_routes.clear()

    def _pick_upstream(self, path: str) -> Optional[tuple[str, int]]:
        for prefix, upstreams in self._routes:
            if path.startswith(prefix) and upstreams:
                index = self._rr[prefix] % len(upstreams)
                self._rr[prefix] = index + 1
                return upstreams[index]
        return None

    def _next_x_request_id(self) -> str:
        self._xreq_counter += 1
        return f"{self.name}-{self._xreq_counter:08x}"

    def start(self) -> None:
        """Start serving (spawns the accept loop)."""
        super().start()
        if self.cross_thread:
            self._handoff = Queue(self.sim, name=f"{self.name}:handoff")
            upstream_thread = self.kernel.create_thread(self.process)
            self.sim.spawn(self._upstream_worker(upstream_thread),
                           name=f"{self.name}:upstream")

    frame_length = staticmethod(http_message_length)

    def handle_payload(self, worker: WorkerContext,
                       data: bytes) -> Generator:
        """Process one request; returns the response bytes."""
        request = decode_http_request(data)
        if self.proxy_time:
            yield from worker.work(self.proxy_time)
        x_request_id = request.headers.get("x-request-id")
        if not x_request_id:
            x_request_id = self._next_x_request_id()
        for prefix, status_code in self._fault_routes.items():
            if request.path.startswith(prefix):
                return http1.encode_response(
                    status_code, headers={"X-Request-ID": x_request_id})
        upstream = self._pick_upstream(request.path)
        if upstream is None:
            return http1.encode_response(
                502, headers={"X-Request-ID": x_request_id})
        headers = dict(request.headers)
        headers["x-request-id"] = x_request_id
        forwarded = {key.title(): value for key, value in headers.items()
                     if key not in ("content-length", "host")}
        if self.cross_thread:
            response = yield from self._forward_cross_thread(
                upstream, request, forwarded)
        else:
            try:
                response = yield from worker.call_http(
                    upstream[0], upstream[1], request.method, request.path,
                    headers=forwarded, body=request.body)
            except (ConnectionResetError, BrokenPipeError, ConnectionError):
                response = Response(status_code=502)
        reply_headers = dict(response.headers)
        reply_headers.pop("content-length", None)
        reply_headers["X-Request-ID"] = x_request_id
        return http1.encode_response(response.status_code,
                                     headers=reply_headers,
                                     body=response.body)

    # -- cross-thread forwarding -------------------------------------------

    def _forward_cross_thread(self, upstream, request,
                              headers) -> Generator:
        done = self.sim.event()
        self._handoff.put((upstream, request, headers, done))
        response = yield done
        return response

    def _upstream_worker(self, thread) -> Generator:
        worker = WorkerContext(self, thread, None)
        while self.running:
            upstream, request, headers, done = yield self._handoff.get()
            try:
                response = yield from worker.call_http(
                    upstream[0], upstream[1], request.method, request.path,
                    headers=headers, body=request.body)
            except (ConnectionResetError, BrokenPipeError,
                    ConnectionError):
                response = Response(status_code=502)
            done.succeed(response)


class EnvoySidecar(NginxProxy):
    """A sidecar proxy: one fixed upstream (the co-located app container).

    Deployed on the same pod as the application it fronts, as in the Istio
    Bookinfo topology.  Inherits the X-Request-ID behaviour.
    """

    def __init__(self, name: str, node: Node, port: int,
                 app_ip: str, app_port: int, pod: Optional[Pod] = None,
                 **kwargs):
        kwargs.setdefault("proxy_time", 0.0001)
        super().__init__(name, node, port, pod, **kwargs)
        self.add_route("/", [(app_ip, app_port)])
