"""Retry, backoff, and rate-limit behavior against stub transports."""

from __future__ import annotations

import random

import pytest
import requests

from taxotext.errors import AuthError, HttpError, MalformedResponse
from taxotext.http import MAX_RETRY_AFTER_S, RetryPolicy, TokenBucket, request_json


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_token_bucket_spends_then_waits():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock, sleep=clock.sleep)
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == 0.0
    waited = bucket.acquire()  # bucket empty; refill at 2/s means 0.5s
    assert waited == pytest.approx(0.5)
    assert clock.now == pytest.approx(0.5)


def test_token_bucket_refills_while_idle():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock, sleep=clock.sleep)
    for _ in range(3):
        bucket.acquire()
    clock.now += 10.0  # refill caps at capacity
    for _ in range(3):
        assert bucket.acquire() == 0.0
    assert bucket.acquire() == pytest.approx(1.0)


def test_token_bucket_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)


class StubResponse:
    def __init__(self, status, payload=None, text="boom"):
        self.status_code = status
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class StubSession:
    """Scripted transport; each entry is a StubResponse or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def request(self, method, url, timeout=None, **kwargs):
        self.calls.append((method, url, kwargs))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def _request(session, sleeps, policy=RetryPolicy(max_attempts=3, base_backoff=1.0)):
    return request_json(
        "GET",
        "http://unit.test/x",
        policy=policy,
        session=session,
        sleep=sleeps.append,
        rng=random.Random(0),
    )


def test_retries_5xx_then_succeeds():
    session = StubSession([StubResponse(500), StubResponse(502), StubResponse(200, {"ok": 1})])
    sleeps = []
    assert _request(session, sleeps) == {"ok": 1}
    assert len(session.calls) == 3
    # backoff doubles per attempt: base*2^0*(1+j0), base*2^1*(1+j1)
    rng = random.Random(0)
    expected = [1.0 * (1 + rng.random()), 2.0 * (1 + rng.random())]
    assert sleeps == pytest.approx(expected)


def test_retries_429_and_transport_errors():
    session = StubSession(
        [StubResponse(429), requests.ConnectionError("reset"), StubResponse(200, {"ok": 2})]
    )
    sleeps = []
    assert _request(session, sleeps) == {"ok": 2}
    assert len(session.calls) == 3


def test_gives_up_after_max_attempts():
    session = StubSession([StubResponse(500)] * 3)
    with pytest.raises(HttpError) as err:
        _request(session, [])
    assert err.value.status == 500
    assert len(session.calls) == 3


def test_auth_errors_never_retry():
    for status in (401, 403):
        session = StubSession([StubResponse(status)])
        with pytest.raises(AuthError):
            _request(session, [])
        assert len(session.calls) == 1


def test_client_errors_fail_fast():
    session = StubSession([StubResponse(404)])
    with pytest.raises(HttpError) as err:
        _request(session, [])
    assert err.value.status == 404
    assert len(session.calls) == 1


def test_non_json_success_is_malformed():
    session = StubSession([StubResponse(200, payload=None)])
    with pytest.raises(MalformedResponse):
        _request(session, [])


class HeaderResponse(StubResponse):
    def __init__(self, status, payload=None, headers=None):
        super().__init__(status, payload)
        self.headers = headers or {}


def test_429_waits_for_delta_seconds_retry_after():
    session = StubSession(
        [HeaderResponse(429, headers={"Retry-After": "7"}), StubResponse(200, {"ok": 3})]
    )
    sleeps = []
    assert _request(session, sleeps) == {"ok": 3}
    assert sleeps == [7.0]


def test_429_retry_after_at_the_limit_is_honoured():
    session = StubSession(
        [HeaderResponse(429, headers={"Retry-After": "60"}), StubResponse(200, {"ok": 4})]
    )
    sleeps = []
    assert _request(session, sleeps) == {"ok": 4}
    assert sleeps == [MAX_RETRY_AFTER_S]


def test_429_retry_after_over_the_limit_fails_without_sleeping():
    session = StubSession(
        [HeaderResponse(429, headers={"Retry-After": "86400"}), StubResponse(200, {"ok": 4})]
    )
    sleeps = []
    with pytest.raises(HttpError) as info:
        _request(session, sleeps)
    assert info.value.status == 429
    assert sleeps == []
    assert len(session.calls) == 1  # the 200 was never requested


@pytest.mark.parametrize(
    "status,headers",
    [
        (429, {}),
        (429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
        (429, {"Retry-After": "-3"}),
        (429, {"Retry-After": "0"}),  # shorter than the backoff
        (503, {"Retry-After": "7"}),  # honoured on 429 only
    ],
)
def test_retry_after_falls_back_to_backoff(status, headers):
    session = StubSession([HeaderResponse(status, headers=headers), StubResponse(200, {"ok": 5})])
    sleeps = []
    _request(session, sleeps)
    assert sleeps == pytest.approx([1.0 * (1 + random.Random(0).random())])


def test_request_without_session_closes_the_one_it_made(monkeypatch):
    closed = []

    class ScriptedSession(requests.Session):
        def request(self, method, url, **kwargs):
            return StubResponse(200, {"ok": 7})

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(requests, "Session", ScriptedSession)
    assert request_json("GET", "http://unit.test/x") == {"ok": 7}
    assert len(closed) == 1
