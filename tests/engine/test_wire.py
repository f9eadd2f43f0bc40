"""The shared JSON-over-HTTP wire, and the fleet coordinator on it.

Malformed requests are sent over raw sockets: a ``Content-Length`` of
``-1`` or ``abc`` must answer 400 with a JSON ``error`` (not hang the
handler thread or drop the connection), and a fleet route other than
registration must refuse a missing token before it reads the body.
"""

from __future__ import annotations

import json
import socket

import pytest

import repro.engine.remote as remote
from repro.engine.metrics import get_registry
from repro.engine.wire import JsonHandler, check_token, request_json, start_http

TOKEN = "wire-secret"


def raw_request(url: str, request: bytes, timeout: float = 3.0) -> tuple[int, dict]:
    """Send ``request`` verbatim; ``(status, JSON body)`` of the answer."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head, "connection closed without a status line"
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(body) < int(headers["Content-Length"]):
            body += sock.recv(65536)
    return int(lines[0].split()[1]), json.loads(body)


def post(path: str, extra: str = "") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n{extra}\r\n"
    ).encode("latin-1")


class _Echo(JsonHandler):
    server_version = "repro-echo/1"
    routes = {
        ("GET", "/a/*/b"): lambda h, x: (200, {"x": x}),
        ("GET", "/v1/secret"): lambda h: (200, {"ok": True}, {"X-Extra": "1"}),
        ("GET", "/query"): lambda h: (200, h.query),
        ("GET", "/v1/open"): lambda h: (200, {"open": True}),
    }
    open_routes = frozenset({("GET", "/v1/open")})

    def token(self):
        return TOKEN


@pytest.fixture
def echo():
    httpd = start_http("127.0.0.1", 0, _Echo)
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture
def coordinator_url(monkeypatch):
    monkeypatch.setenv("REPRO_REMOTE_SPAWN", "0")
    _, url = remote.start_coordinator(bind="127.0.0.1:0", token=TOKEN)
    yield url
    remote.shutdown_fleet()


def test_check_token():
    assert check_token(None, None)
    assert check_token("", "anything")
    assert not check_token("s", None)
    assert not check_token("s", "t")
    assert check_token("s", "s")


def test_route_segments_status_and_headers(echo):
    assert request_json("GET", f"{echo}/a/seg/b")[:2] == (200, {"x": "seg"})
    status, body, _ = request_json("GET", f"{echo}/a/seg/c")
    assert status == 404 and body["error"] == "no route GET /a/seg/c"
    assert request_json("GET", f"{echo}/v1/secret")[:2] == (
        401, {"error": "unauthorized"}
    )
    status, body, headers = request_json("GET", f"{echo}/v1/secret", token=TOKEN)
    assert (status, body, headers["X-Extra"]) == (200, {"ok": True}, "1")


def test_query_string_is_split_off_before_auth_and_routing(echo):
    assert request_json("GET", f"{echo}/a/seg/b?probe=1")[:2] == (200, {"x": "seg"})
    assert request_json("GET", f"{echo}/query/?a=1&b=&a=2")[:2] == (
        200, {"a": "2", "b": ""}
    )
    assert request_json("GET", f"{echo}/query")[:2] == (200, {})
    # The open-route exemption and the bearer check see the bare path.
    assert request_json("GET", f"{echo}/v1/open?x=1")[:2] == (200, {"open": True})
    assert request_json("GET", f"{echo}/v1/secret?x=1")[0] == 401
    assert request_json("GET", f"{echo}/v1/secret?x=1", token=TOKEN)[0] == 200


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_fleet_malformed_content_length_answers_400(coordinator_url, length):
    status, body = raw_request(
        coordinator_url,
        post("/v1/fleet/register", f"Content-Length: {length}\r\n"),
    )
    assert status == 400
    assert "Content-Length" in body["error"]


def test_fleet_checks_token_before_reading_the_body(coordinator_url):
    # A peer announcing a large body it never sends must not hold a
    # handler thread: the missing token is refused first.
    status, body = raw_request(
        coordinator_url, post("/v1/fleet/lease", "Content-Length: 1000000\r\n")
    )
    assert (status, body) == (401, {"error": "unauthorized"})


def test_fleet_registration_refusal_is_still_counted_403(coordinator_url):
    before = get_registry().counter("engine.remote_auth_rejected")
    status, body, _ = request_json(
        "POST", f"{coordinator_url}/v1/fleet/register",
        {"worker": "w", "fingerprint": {}}, token="wrong",
    )
    assert status == 403 and "token" in body["error"]
    assert get_registry().counter("engine.remote_auth_rejected") == before + 1
