"""The mock servers' bookkeeping, which other tests and the benchmark rely on."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from taxotext.errors import HttpError
from taxotext.http import RetryPolicy, request_json
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient


@pytest.mark.parametrize("kind", ["search", "llm"])
def test_sequential_client_peaks_at_one_in_flight(monkeypatch, kind):
    # a handler thread descheduled after writing its reply must not make the
    # client's next request look concurrent with the one already answered
    for cls in (MockSearchServer, MockLlmServer):
        real_exit = cls._exit_request

        def slow_exit(self, _real=real_exit):
            time.sleep(0.05)
            _real(self)

        monkeypatch.setattr(cls, "_exit_request", slow_exit)
    if kind == "search":
        with (
            MockSearchServer({"Acme": ["a", "b"]}, api_key="k") as server,
            SearchClient(server.base_url, api_key="k") as client,
        ):
            for _ in range(4):
                client.search_entity("Acme", 2)
    else:
        with (
            MockLlmServer(lambda messages, model: "A summary.", api_key="k") as server,
            LlmClient(server.base_url, api_key="k") as client,
        ):
            for _ in range(4):
                client.complete("hi", model="m", max_tokens=5)
    assert server.request_count == 4
    assert server.peak_in_flight == 1


def test_handler_that_raises_stops_counting(capsys):
    def broken_reply(messages, model):
        raise RuntimeError("reply failed")

    with MockLlmServer(broken_reply) as server:
        with pytest.raises(HttpError):
            request_json(
                "POST", f"{server.base_url}/chat/completions",
                policy=RetryPolicy(max_attempts=1), json={"messages": []},
            )
    assert server.request_count == 1
    assert server._in_flight == 0
    capsys.readouterr()  # the server thread's traceback


CHAT = json.dumps({"messages": [{"role": "user", "content": "hi"}], "model": "m"}).encode()


def _send(server, method, path, key):
    """One request straight over http.client, with no client retry; its status."""
    host, port = server.base_url.removeprefix("http://").split(":")
    headers = {}
    if isinstance(server, MockSearchServer):
        path += f"&api_key={key}"
    else:
        headers["Authorization"] = f"Bearer {key}"
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request(method, path, body=CHAT if method == "POST" else None, headers=headers)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


@pytest.fixture(scope="module")
def wire_servers():
    search = MockSearchServer({"Acme": ["a", "b"]}, api_key="k")
    llm = MockLlmServer(lambda messages, model: "A summary.", api_key="k")
    with search, llm:
        yield {"search": search, "llm": llm}


@pytest.mark.parametrize(
    "kind,method,path,key,fail,latency,status",
    [
        ("search", "GET", "/search?q=Acme&num=2", "k", False, 0.0, 200),
        ("llm", "POST", "/chat/completions", "k", False, 0.0, 200),
        ("search", "GET", "/search?q=Acme&num=2", "wrong", False, 0.0, 401),
        ("llm", "POST", "/chat/completions", "wrong", False, 0.0, 401),
        ("llm", "GET", "/nowhere", "wrong", False, 0.0, 401),
        ("search", "GET", "/search?q=Acme&num=2", "k", True, 0.0, 500),
        ("llm", "POST", "/chat/completions", "k", True, 0.0, 500),
        ("llm", "GET", "/nowhere", "k", True, 0.0, 500),
        ("llm", "POST", "/nowhere", "k", False, 0.0, 404),
        ("llm", "GET", "/nowhere", "k", False, 0.0, 404),
        ("search", "POST", "/search?q=Acme", "k", False, 0.0, 404),
        ("llm", "GET", "/nowhere", "k", False, 0.2, 404),
    ],
    ids=[
        "search-get", "llm-chat",
        "search-bad-key", "llm-post-bad-key", "llm-get-bad-key",
        "search-injected-500", "llm-post-injected-500", "llm-get-injected-500",
        "llm-post-unknown-path", "llm-get-unknown-path",
        "search-post", "llm-get-sleeps-latency",
    ],
)
def test_wire_status_and_counting(wire_servers, kind, method, path, key, fail, latency, status):
    server = wire_servers[kind]
    server.latency = latency
    before = server.request_count
    if fail:
        server.fail_next(1)
    started = time.perf_counter()
    try:
        assert _send(server, method, path, key) == status
    finally:
        server.latency = 0.0
    elapsed = time.perf_counter() - started
    assert server.request_count == before + 1
    assert server._in_flight == 0
    assert elapsed >= latency


@pytest.mark.parametrize("first_key,first_status", [("k", 500), ("wrong", 401)])
def test_refused_post_leaves_no_body_behind_on_a_kept_alive_connection(first_key, first_status):
    # a refused request's body, left unread in the socket, would be parsed
    # as the start of the next request on the same connection
    with MockLlmServer(lambda messages, model: "A summary.", api_key="k") as server:
        if first_status == 500:
            server.fail_next(1)
        host, port = server.base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        statuses = []
        try:
            for key in (first_key, "k"):
                headers = {"Authorization": f"Bearer {key}"}
                conn.request("POST", "/chat/completions", body=CHAT, headers=headers)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            conn.close()
    assert statuses == [first_status, 200]
    assert server.request_count == 2
    assert server.connection_count == 1
