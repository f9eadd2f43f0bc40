"""Client-side retry: transient connection faults on idempotent GETs.

A raw socket server stands in for a blinking service: it slams the
door (RST) on the first N connections, then serves a canned JSON
answer.  The client must absorb the transient resets on GETs with
capped jittered backoff, must NOT retry POSTs (a lost submission
response would double-submit), and must surface a typed
:class:`~repro.errors.ServiceError` once retries are exhausted.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

import repro.service.client as client_module
from repro.errors import ServiceError
from repro.service import ServiceClient


class FlakyServer:
    """Drops the first ``drop_first`` connections with RST, then serves
    every request a fixed 200 JSON response."""

    def __init__(self, drop_first: int, payload: dict):
        self.drop_first = drop_first
        self.payload = json.dumps(payload).encode("utf-8")
        self.accepted = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return  # listener closed: test over
            self.accepted += 1
            if self.accepted <= self.drop_first:
                # SO_LINGER(on, 0) turns close() into an RST: the client
                # sees a genuine connection reset, not a polite FIN.
                conn.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                conn.close()
                continue
            try:
                conn.settimeout(5.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(self.payload)}\r\n\r\n"
                ).encode("ascii")
                conn.sendall(head + self.payload)
            except OSError:
                pass
            finally:
                conn.close()

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=2.0)


@pytest.fixture
def flaky():
    servers = []

    def _start(drop_first: int, payload: dict | None = None) -> FlakyServer:
        server = FlakyServer(drop_first, payload or {"jobs": []})
        servers.append(server)
        return server

    yield _start
    for server in servers:
        server.close()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(client_module, "RETRY_BACKOFF", 0.01)
    monkeypatch.setattr(client_module, "RETRY_BACKOFF_CAP", 0.05)


def fast_client(url: str) -> ServiceClient:
    return ServiceClient(url, timeout=5.0)


def test_get_survives_transient_connection_drops(flaky):
    server = flaky(drop_first=3)
    client = fast_client(server.url)
    assert client.jobs() == []
    # 3 resets + 1 success; no gratuitous extra connections.
    assert server.accepted == 4


def test_get_gives_up_after_retry_budget(flaky, monkeypatch):
    monkeypatch.setattr(client_module, "RETRIES", 2)
    server = flaky(drop_first=100)
    client = fast_client(server.url)
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.jobs()
    assert server.accepted == 3  # initial try + 2 retries, then give up


def test_post_is_never_retried(flaky):
    server = flaky(drop_first=1)
    client = fast_client(server.url)
    with pytest.raises(ServiceError, match="cannot reach service"):
        client._request("POST", "/v1/jobs", {"spec": {}})
    assert server.accepted == 1  # one attempt, no blind resubmission


def test_refused_connection_is_retried_then_reported(flaky, monkeypatch):
    monkeypatch.setattr(client_module, "RETRIES", 1)
    # A port with no listener at all: connection refused every time.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    client = fast_client(f"http://127.0.0.1:{dead_port}")
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.healthz()
