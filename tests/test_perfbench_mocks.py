"""The benchmark's mock process reads the servers' counters directly.

``perfbench/mocks.py::_reset`` takes each server's ``_stats_lock`` and reads
and zeroes ``request_count`` and ``peak_in_flight``, then clears the LLM
server's ``chat_requests``. A change to the mock servers that drops one of
them would break the benchmark, so it fails here first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient

MOCKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "mocks.py"


def _load_mocks(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_mocks", MOCKS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_reset_reports_and_zeroes_each_servers_counts(monkeypatch):
    reset = _load_mocks(monkeypatch)._reset
    search = MockSearchServer({"Acme": ["a", "b"]}, api_key="k")
    llm = MockLlmServer(lambda messages, model: "A summary.", api_key="k")
    with search, llm:
        SearchClient(search.base_url, api_key="k").search_entity("Acme", 2)
        LlmClient(llm.base_url, api_key="k").complete("hi", model="m", max_tokens=5)
        assert len(llm.chat_requests) == 1
        assert reset(search) == {"requests": 1, "peak_in_flight": 1}
        assert reset(llm) == {"requests": 1, "peak_in_flight": 1}
        for server in (search, llm):
            assert (server.request_count, server.peak_in_flight) == (0, 0)
        assert llm.chat_requests == []
        assert reset(search) == {"requests": 0, "peak_in_flight": 0}
