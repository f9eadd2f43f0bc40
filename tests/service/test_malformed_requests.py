"""Malformed framing on the job service: answered 400, never a hang.

``Content-Length: -1`` used to block a handler thread in
``rfile.read(-1)`` and ``Content-Length: abc`` dropped the connection
without a status line; both now answer 400 with a JSON ``error``.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceConfig

from tests.engine.test_wire import post, raw_request
from tests.service.test_service_api import FakeExecutor, LiveService


@pytest.fixture
def service_url(tmp_path):
    box = LiveService(
        tmp_path / "svc", ServiceConfig(workers=1, drain_timeout=2.0), FakeExecutor()
    )
    yield box.client.base_url
    box.stop()


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_submit_with_malformed_content_length_answers_400(service_url, length):
    status, body = raw_request(
        service_url, post("/v1/jobs", f"Content-Length: {length}\r\n")
    )
    assert status == 400
    assert "Content-Length" in body["error"]


def test_service_still_serves_after_a_malformed_request(service_url):
    raw_request(service_url, post("/v1/jobs", "Content-Length: -1\r\n"))
    status, body = raw_request(service_url, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert (status, body) == (200, {"status": "ok"})
