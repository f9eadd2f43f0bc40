"""JSON over HTTP: the one wire under ``repro serve`` and the fleet.

Both HTTP front ends — the job service (:mod:`repro.service.server`)
and the fleet coordinator (:mod:`repro.engine.remote`) — are route
tables on :class:`JsonHandler`, and both clients (the service client
and the fleet worker) call through :func:`request_json`.  Framing,
body reads, the bearer check and request logging live here once.

Server side
    :attr:`JsonHandler.routes` maps ``(method, path)`` to a handler
    returning ``(status, body)`` or ``(status, body, headers)``; a
    ``*`` path segment matches any one segment and is passed to the
    handler.  The query string is split off before the bearer check and
    routing, and handlers read it parsed as :attr:`JsonHandler.query`.
    Paths under ``/v1/`` demand ``Authorization: Bearer <token>`` when
    :meth:`JsonHandler.token` is set and answer 401 before any body is
    read, except the ``open_routes``.  A malformed
    ``Content-Length`` answers 400.  Request lines reach stderr only
    under ``$REPRO_SERVE_LOG``.
Client side
    :func:`request_json` makes one attempt and returns ``(status, body,
    headers)`` for every HTTP answer, error statuses included;
    connection failures raise (:class:`urllib.error.URLError`,
    :class:`OSError`) so each caller owns its retry policy.
"""

from __future__ import annotations

import hmac
import json
import os
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine.metrics import get_registry

__all__ = ["BadRequest", "JsonHandler", "check_token", "request_json", "start_http"]


class BadRequest(Exception):
    """Raised inside a handler to answer 400 ``{"error": message}``."""


def check_token(expected: str | None, presented: str | None) -> bool:
    """Constant-time bearer comparison; no expected token admits all.

    Constant-time so the token cannot be guessed byte-by-byte through
    response timing.
    """
    if not expected:
        return True
    if presented is None:
        return False
    return hmac.compare_digest(expected.encode("utf-8"), presented.encode("utf-8"))


class JsonHandler(BaseHTTPRequestHandler):
    """Route-table JSON handler; subclasses declare :attr:`routes`."""

    protocol_version = "HTTP/1.1"
    #: ``(method, path pattern) -> handler(self, *segments)``.
    routes: dict = {}
    #: ``(method, path)`` pairs under ``/v1/`` that skip the bearer
    #: check because their handler authenticates on its own.
    open_routes: frozenset = frozenset()
    #: Counter incremented on every 401 (``None`` = not counted).
    auth_counter: str | None = None
    #: The request's query parameters (the last value of a repeated
    #: name wins), set before the handler runs.
    query: dict = {}

    def token(self) -> str | None:
        """The bearer token ``/v1/`` routes demand (``None`` = open)."""
        return None

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if os.environ.get("REPRO_SERVE_LOG"):
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    def bearer(self) -> str | None:
        auth = self.headers.get("Authorization") or ""
        return auth[len("Bearer "):] if auth.startswith("Bearer ") else None

    def read_json(self):
        """The request body as JSON; ``None`` when empty or not JSON."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise BadRequest(f"malformed Content-Length {raw!r}")
        self._body_read = True
        data = self.rfile.read(length) if length else b""
        try:
            return json.loads(data) if data else None
        except ValueError:
            return None

    def reply(self, status: int, body, headers: dict | None = None) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _route(self, method: str, path: str):
        parts = path.split("/")
        for (verb, pattern), handler in self.routes.items():
            want = pattern.split("/")
            if verb == method and len(want) == len(parts) and all(
                w in ("*", p) for w, p in zip(want, parts)
            ):
                return handler, [p for w, p in zip(want, parts) if w == "*"]
        return None, []

    def _dispatch(self) -> None:
        raw, _, query = self.path.partition("?")
        method, path = self.command, raw.rstrip("/") or "/"
        self.query = dict(urllib.parse.parse_qsl(query, keep_blank_values=True))
        self._body_read = False
        try:
            if (
                raw.startswith("/v1/")
                and (method, path) not in self.open_routes
                and not check_token(self.token(), self.bearer())
            ):
                if self.auth_counter:
                    get_registry().increment(self.auth_counter)
                outcome = (401, {"error": "unauthorized"})
            else:
                handler, args = self._route(method, path)
                if handler is None:
                    outcome = (404, {"error": f"no route {method} {self.path}"})
                else:
                    outcome = handler(self, *args)
        except BadRequest as exc:
            outcome = (400, {"error": str(exc)})
        if not self._body_read and (self.headers.get("Content-Length") or "0") != "0":
            # An unread body would be parsed as the next request.
            self.close_connection = True
        self.reply(*outcome)

    do_GET = do_POST = do_DELETE = _dispatch


def start_http(host: str, port: int, handler_cls, **attrs) -> ThreadingHTTPServer:
    """Serve ``handler_cls`` on ``host:port`` (0 = ephemeral) from a
    daemon thread; ``attrs`` become server attributes its handlers read.
    Stop it with ``shutdown()`` then ``server_close()``."""
    httpd = ThreadingHTTPServer((host, port), handler_cls)
    httpd.daemon_threads = True
    for name, value in attrs.items():
        setattr(httpd, name, value)
    threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.1},
        name=f"{handler_cls.server_version}-http",
        daemon=True,
    ).start()
    return httpd


def request_json(
    method: str,
    url: str,
    body=None,
    token: str | None = None,
    timeout: float = 30.0,
):
    """One JSON request; ``(status, body, headers)`` for any HTTP answer.

    An error answer whose body is not JSON yields ``{}``; connection
    failures raise.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read().decode("utf-8")),
                response.headers,
            )
    except urllib.error.HTTPError as exc:
        try:
            answer = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            answer = {}
        return exc.code, answer, exc.headers
