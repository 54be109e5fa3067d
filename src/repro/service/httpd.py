"""HTTP front-end for the planner daemon and fleet router (stdlib only).

A thin :mod:`http.server` layer over :class:`PlannerDaemon` (and, via
the same :class:`JSONHandler`, the fleet router) — all policy
(admission, breaker, cache, deadlines) lives behind it; this module
only maps the JSON protocol onto status codes:

==========================  =====================================
``POST /plan``              200 served/partial, 400 bad request,
                            429 rejected (+ ``Retry-After``),
                            500 failed
``GET /healthz``            always 200; body carries
                            healthy/degraded detail
``GET /readyz``             200 ready / 503 draining or stopped
``POST /invalidate``        200, body ``{"dropped": N}``
``POST /churn``             200, body ``{"kind", "dropped"}``;
                            400 invalid event
==========================  =====================================

``ThreadingHTTPServer`` gives one thread per connection, so a slow
search never blocks ``/healthz`` — the daemon's own worker pool and
admission queue bound the actual planning concurrency.  Connections are
HTTP/1.1 keep-alive with ``TCP_NODELAY`` set (``JSONHandler``, shared
with the fleet front): the handler writes headers and body separately,
and without it Nagle holds the body until the client's delayed ACK,
about 40 ms per request.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..telemetry import get_bus
from ..telemetry.events import SERVICE_HTTP_ACCESS, SERVICE_HTTP_LISTEN
from .daemon import PlannerDaemon
from .protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_PARTIAL,
    ProtocolError,
    PlanRequest,
)

_STATUS_CODES = {
    STATUS_SERVED: 200,
    STATUS_PARTIAL: 200,
    STATUS_REJECTED: 429,
}


def response_status_code(response) -> int:
    """HTTP code for a terminal :class:`PlanResponse`."""
    code = _STATUS_CODES.get(response.status, 500)
    if response.status == STATUS_REJECTED and response.diagnostics:
        # Admission lint rejected the request as invalid: that is a
        # client error (400), not back-pressure (429) — retrying the
        # same payload can never succeed.
        code = 400
    return code


class PlannerHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to a :class:`PlannerDaemon`."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops connections under request
    # bursts (e.g. churn replay while plans are in flight); the kernel
    # clamps this to somaxconn.
    request_queue_size = 64

    def __init__(self, address, daemon: PlannerDaemon) -> None:
        super().__init__(address, _Handler)
        self.planner_daemon = daemon


class JSONHandler(BaseHTTPRequestHandler):
    """The JSON-over-HTTP front shared by the daemon and the fleet
    router: the route table above, telemetry access log and typed
    bodies.  Subclasses bind the routes to their backend through the
    ``_health`` / ``_ready`` / ``_submit`` / ``_invalidate`` /
    ``_churn`` hooks."""

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every keep-alive connection (module docstring).
    disable_nagle_algorithm = True
    #: Telemetry source tag for access-log events.
    telemetry_source = "service"

    def log_message(self, fmt: str, *args) -> None:
        # Route access logs onto the telemetry bus instead of stderr so
        # the daemon run log is the single source of truth; format
        # nothing when no sink keeps the event.
        bus = get_bus()
        if bus.wants(SERVICE_HTTP_ACCESS):
            bus.emit(
                SERVICE_HTTP_ACCESS,
                source=self.telemetry_source,
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
            self._send_json(200, self._health())
        elif self.path == "/readyz":
            ready = self._ready()
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
        response = self._submit(request)
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
        self._send_json(200, self._invalidate(gpus))

    def _handle_churn(self) -> None:
        """One churn event (``ChurnEvent`` JSON): stale plans drop,
        service keeps answering ``/plan`` against the new conditions."""
        try:
            result = self._churn(self._read_body())
        except ValueError as exc:  # ProtocolError, ArtifactError
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(200, result)


class _Handler(JSONHandler):
    @property
    def _daemon(self) -> PlannerDaemon:
        return self.server.planner_daemon  # type: ignore[attr-defined]

    def _health(self) -> dict:
        return self._daemon.health()

    def _ready(self) -> bool:
        return self._daemon.ready

    def _submit(self, request: PlanRequest):
        return self._daemon.submit(request)

    def _invalidate(self, gpus: Optional[int]) -> dict:
        return {"dropped": self._daemon.invalidate_plans(gpus=gpus)}

    def _churn(self, body: dict) -> dict:
        return self._daemon.apply_churn(body)


def serve(
    daemon: PlannerDaemon,
    *,
    host: str = "127.0.0.1",
    port: int = 8347,
) -> PlannerHTTPServer:
    """Bind (without blocking) and return the server; the caller runs
    ``serve_forever`` and owns shutdown ordering."""
    server = PlannerHTTPServer((host, port), daemon)
    get_bus().emit(
        SERVICE_HTTP_LISTEN,
        source="service",
        host=host,
        port=server.server_address[1],
    )
    return server
