"""HTTP plumbing shared by acquisition clients: retries and rate limiting."""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass

import requests

from .errors import AuthError, HttpError, MalformedResponse

logger = logging.getLogger(__name__)

_RETRYABLE = frozenset({429}) | frozenset(range(500, 600))
# A 429 asking for a longer wait fails at once rather than parking a worker.
MAX_RETRY_AFTER_S = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff: float = 1.0  # seconds; doubles per attempt, plus jitter


class TokenBucket:
    """Token-bucket limiter; safe to share across worker threads."""

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else max(1.0, float(rate))
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._stamp = clock()
        self._lock = threading.Lock()

    def acquire(self, tokens: float = 1.0) -> float:
        """Block until `tokens` are available; return the seconds waited."""
        waited = 0.0
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= tokens:
                    self._tokens -= tokens
                    return waited
                shortfall = (tokens - self._tokens) / self.rate
            self._sleep(shortfall)
            waited += shortfall


def request_json(
    method: str,
    url: str,
    *,
    policy: RetryPolicy = RetryPolicy(),
    session=None,
    sleep=time.sleep,
    rng: random.Random | None = None,
    timeout: float = 30.0,
    **kwargs,
) -> dict:
    """Issue a request and decode its JSON body.

    Retries 429/5xx responses and transport faults with exponential backoff
    plus jitter; a 429 waits at least its delta-seconds ``Retry-After``, and
    one whose ``Retry-After`` exceeds MAX_RETRY_AFTER_S raises HttpError at once.
    401/403 raise AuthError immediately and are never retried. A session
    made here (none passed) is closed before returning.
    """
    if session is None:
        with requests.Session() as own:
            return request_json(
                method, url, policy=policy, session=own, sleep=sleep, rng=rng,
                timeout=timeout, **kwargs,
            )
    rng = rng if rng is not None else random.Random()
    failure = "no attempt made"
    status: int | None = None
    for attempt in range(1, max(1, policy.max_attempts) + 1):
        try:
            resp = session.request(method, url, timeout=timeout, **kwargs)
        except requests.RequestException as exc:
            status = None
            failure = f"transport error: {exc}"
        else:
            status = resp.status_code
            if status in (401, 403):
                raise AuthError(f"{url} rejected the credential (HTTP {status})")
            if 200 <= status < 300:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise MalformedResponse(f"{url} returned non-JSON body") from exc
            failure = f"HTTP {status}"
            if status not in _RETRYABLE:
                raise HttpError(f"{url}: {failure}", status=status)
        if attempt < policy.max_attempts:
            delay = policy.base_backoff * (2 ** (attempt - 1)) * (1.0 + rng.random())
            if status == 429:  # status is None after a transport error, so resp is this attempt's
                wait = _retry_after_s(resp)
                if wait > MAX_RETRY_AFTER_S:
                    raise HttpError(
                        f"{url}: {failure} with Retry-After {wait:g}s, over the "
                        f"{MAX_RETRY_AFTER_S:g}s limit",
                        status=status,
                    )
                delay = max(delay, wait)
            logger.debug("retrying %s after %s (attempt %d): %.2fs", url, failure, attempt, delay)
            sleep(delay)
    raise HttpError(f"{url}: {failure} after {policy.max_attempts} attempts", status=status)


def _retry_after_s(resp) -> float:
    """A response's delta-seconds ``Retry-After``; 0 when absent or an HTTP-date."""
    value = str((getattr(resp, "headers", None) or {}).get("Retry-After", "")).strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0
