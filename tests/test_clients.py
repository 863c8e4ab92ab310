"""The constructor the search and chat clients share."""

from __future__ import annotations

import pytest

from taxotext.errors import ConfigError
from taxotext.http import RetryPolicy
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient

# One reply body that every client call below accepts.
REPLY = {
    "organic_results": [],
    "choices": [{"message": {"content": "ok"}}],
}


class Reply:
    def __init__(self, status):
        self.status_code = status

    def json(self):
        return REPLY


class Session:
    """Fails the first `failures` requests with HTTP 503, then answers REPLY."""

    def __init__(self, failures=0):
        self.failures = failures
        self.requests = 0

    def request(self, method, url, timeout=None, **kwargs):
        self.requests += 1
        return Reply(503 if self.requests <= self.failures else 200)


class Bucket:
    def __init__(self):
        self.acquired = 0

    def acquire(self, tokens=1.0):
        self.acquired += 1
        return 0.0


def _search(client):
    client.search_entity("Acme Mining", 3)


def _chat(client):
    client.complete("Summarize Acme Mining.", model="m", max_tokens=8)


@pytest.mark.parametrize(
    "cls,key_env,call,requests",
    [
        (SearchClient, "SEARCH_API_KEY", _search, 1),
        (LlmClient, "LLM_API_KEY", _chat, 1),
    ],
    ids=["search", "chat"],
)
def test_client_shares_key_rate_limit_and_sleep(cls, key_env, call, requests, monkeypatch):
    for name in ("SEARCH_API_KEY", "LLM_API_KEY"):
        monkeypatch.delenv(name, raising=False)
    with pytest.raises(ConfigError, match=f"^{key_env} is not set and no api_key was given$"):
        cls("http://unit.test")

    bucket, session = Bucket(), Session()
    call(cls("http://unit.test", "k", rate_limit=bucket, session=session))
    assert session.requests == requests
    assert bucket.acquired == requests

    sleeps = []
    policy = RetryPolicy(max_attempts=2, base_backoff=1.0)
    session = Session(failures=1)
    call(cls("http://unit.test", "k", policy=policy, session=session, sleep=sleeps.append))
    assert session.requests == requests + 1
    assert len(sleeps) == 1
    assert 1.0 <= sleeps[0] <= 2.0  # base backoff times (1 + jitter)
