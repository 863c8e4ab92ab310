"""The mock servers' bookkeeping, which other tests and the benchmark rely on."""

from __future__ import annotations

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
        with MockSearchServer({"Acme": ["a", "b"]}, api_key="k") as server:
            client = SearchClient(server.base_url, api_key="k")
            for _ in range(4):
                client.search_entity("Acme", 2)
    else:
        with MockLlmServer(lambda messages, model: "A summary.", api_key="k") as server:
            client = LlmClient(server.base_url, api_key="k")
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
