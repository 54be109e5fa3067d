"""HTTP front-end of the planner fleet (stdlib only).

A thin :mod:`http.server` layer over one
:class:`~repro.service.fleet.FleetRouter` — ``repro-serve`` is a fleet
of one replica, ``repro-fleet`` of N.  All policy (admission, breaker,
cache, deadlines, failover) lives behind the router; this module only
maps the JSON protocol onto status codes:

==========================  =====================================
``POST /plan``              200 served/partial, 400 bad request,
                            429 rejected (+ ``Retry-After``),
                            500 failed
``GET /healthz``            always 200; body carries
                            healthy/degraded/down and each
                            replica's own queue, breaker and
                            cache state
``GET /readyz``             200 ready / 503 no replica up
``POST /invalidate``        200, body ``{"dropped", "demoted",
                            "replicas": {name: {"dropped"}}}``
``POST /churn``             200, body ``{"kind", "dropped"}``
                            (the router's fold takes the event;
                            later requests carry it); 400
                            invalid event
==========================  =====================================

``ThreadingHTTPServer`` gives one thread per connection, so a slow
search never blocks ``/healthz`` — each replica's worker pool and
admission queue bound the actual planning concurrency.  Connections are
HTTP/1.1 keep-alive with ``TCP_NODELAY`` set: the handler writes
headers and body separately, and without it Nagle holds the body until
the client's delayed ACK, about 40 ms per request.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional

from ..telemetry import get_bus
from ..telemetry.events import SERVICE_HTTP_ACCESS, SERVICE_HTTP_LISTEN
from .protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_PARTIAL,
    ProtocolError,
    PlanRequest,
)

if TYPE_CHECKING:
    from .fleet import FleetRouter

_STATUS_CODES = {
    STATUS_SERVED: 200,
    STATUS_PARTIAL: 200,
    STATUS_REJECTED: 429,
}


def response_status_code(response) -> int:
    """HTTP code for a terminal :class:`PlanResponse`."""
    code = _STATUS_CODES.get(response.status, 500)
    if response.status == STATUS_REJECTED and response.diagnostics:
        # A diagnostic (admission lint, or churn left no device)
        # rejected the request: a client error (400), not back-pressure
        # (429) — retrying the same payload cannot succeed as things are.
        code = 400
    return code


class PlanHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to a :class:`FleetRouter`."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops connections under request
    # bursts (e.g. churn replay while plans are in flight); the kernel
    # clamps this to somaxconn.
    request_queue_size = 64

    def __init__(self, address, router: "FleetRouter") -> None:
        super().__init__(address, JSONHandler)
        self.router = router


class JSONHandler(BaseHTTPRequestHandler):
    """The route table above, a telemetry access log and typed bodies,
    each route one call on the server's router."""

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every keep-alive connection (module docstring).
    disable_nagle_algorithm = True

    @property
    def _router(self) -> "FleetRouter":
        return self.server.router  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        # Route access logs onto the telemetry bus instead of stderr so
        # the run log is the single source of truth; format nothing
        # when no sink keeps the event.
        bus = get_bus()
        if bus.wants(SERVICE_HTTP_ACCESS):
            bus.emit(
                SERVICE_HTTP_ACCESS,
                source="service",
                client=self.address_string(),
                line=fmt % args,
            )

    def _send_json(
        self, code: int, payload: dict,
        *, retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.2f}")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self._router.fleet_health())
        elif self.path == "/readyz":
            ready = self._router.ready
            self._send_json(200 if ready else 503, {"ready": ready})
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/plan":
            self._handle_plan()
        elif self.path == "/invalidate":
            self._handle_invalidate()
        elif self.path == "/churn":
            self._handle_churn()
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def _handle_plan(self) -> None:
        try:
            request = PlanRequest.from_json(self._read_body())
        except (ProtocolError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        response = self._router.submit(request)
        self._send_json(
            response_status_code(response),
            response.to_json(),
            retry_after=response.retry_after,
        )

    def _handle_invalidate(self) -> None:
        try:
            body = self._read_body()
        except (ProtocolError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        gpus = body.get("gpus")
        if gpus is not None and not isinstance(gpus, int):
            self._send_json(400, {"error": "gpus must be an integer"})
            return
        self._send_json(200, self._router.invalidate(gpus=gpus))

    def _handle_churn(self) -> None:
        """One churn event (``ChurnEvent`` JSON): the router folds it,
        and later ``/plan`` requests plan on the folded cluster."""
        try:
            result = self._router.churn(self._read_body())
        except ValueError as exc:  # ProtocolError, ArtifactError
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(200, result)


def serve(
    router: "FleetRouter",
    *,
    host: str = "127.0.0.1",
    port: int = 8347,
) -> PlanHTTPServer:
    """Bind (without blocking) and return the server; the caller runs
    ``serve_forever`` and owns shutdown ordering."""
    server = PlanHTTPServer((host, port), router)
    get_bus().emit(
        SERVICE_HTTP_LISTEN,
        source="service",
        host=host,
        port=server.server_address[1],
    )
    return server
