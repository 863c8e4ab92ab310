from __future__ import annotations

import pytest

from taxotext.errors import AuthError, ConfigError, MalformedResponse
from taxotext.mockserver import MockSearchServer
from taxotext.search import SearchClient, SearchResult, aggregate_snippets


@pytest.fixture()
def server():
    with MockSearchServer(
        {"Gold Hills Mining Ltd": [f"snippet {i}" for i in range(10)]},
        api_key="good-key",
    ) as srv:
        yield srv


def test_search_returns_ranked_results(server):
    with SearchClient(server.base_url, api_key="good-key") as client:
        results = client.search_entity("Gold Hills Mining Ltd", k=4)
    assert [r.rank for r in results] == [1, 2, 3, 4]
    assert [r.snippet for r in results] == ["snippet 0", "snippet 1", "snippet 2", "snippet 3"]
    assert results[0].url.startswith("https://")


def test_search_clamps_to_available(server):
    with SearchClient(server.base_url, api_key="good-key") as client:
        assert len(client.search_entity("Gold Hills Mining Ltd", k=25)) == 10
        assert client.search_entity("Nobody Knows This Name", k=5) == []


def test_search_auth_failure(server):
    with SearchClient(server.base_url, api_key="wrong-key") as client:
        with pytest.raises(AuthError):
            client.search_entity("Gold Hills Mining Ltd", k=3)
    assert server.request_count == 1  # no retry on a rejected credential


def test_search_key_from_env(server, monkeypatch):
    monkeypatch.delenv("SEARCH_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        SearchClient(server.base_url)
    monkeypatch.setenv("SEARCH_API_KEY", "good-key")
    with SearchClient(server.base_url) as client:
        assert len(client.search_entity("Gold Hills Mining Ltd", k=1)) == 1


def test_search_rejects_bad_args(server):
    with SearchClient(server.base_url, api_key="good-key") as client:
        with pytest.raises(ValueError):
            client.search_entity("", k=3)
        with pytest.raises(ValueError):
            client.search_entity("x", k=0)


def test_missing_organic_results_is_malformed(monkeypatch):
    client = SearchClient("http://unit.test", api_key="k")

    class R:
        status_code = 200
        text = "{}"

        def json(self):
            return {"weird": []}

    class S:
        def request(self, *a, **k):
            return R()

    client._session = S()
    with pytest.raises(MalformedResponse):
        client.search_entity("x", k=1)


def _results(snips):
    return [
        SearchResult(rank=i + 1, title=f"t{i}", url=f"u{i}", snippet=s)
        for i, s in enumerate(snips)
    ]


def test_aggregate_joins_in_rank_order():
    joined = aggregate_snippets(_results(["alpha", "beta", "gamma"]), k=2)
    assert joined == "alpha beta"


def test_aggregate_skips_blank_snippets():
    joined = aggregate_snippets(_results(["alpha", "   ", "gamma"]), k=3)
    assert joined == "alpha gamma"


def test_aggregate_strips_outer_whitespace():
    joined = aggregate_snippets(_results(["  alpha  ", "beta\n"]), k=2)
    assert joined == "alpha beta"
