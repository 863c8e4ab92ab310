"""HTTP plumbing shared by provider clients: the client base, a keep-alive
transport, retries and rate limiting."""

from __future__ import annotations

import json as jsonlib
import logging
import os
import random
import select
import threading
import time
from dataclasses import dataclass
from urllib.parse import unquote, urlencode, urlsplit

from .errors import AuthError, ConfigError, HttpError, MalformedResponse

logger = logging.getLogger(__name__)

_RETRYABLE = frozenset({429}) | frozenset(range(500, 600))
# A 429 asking for a longer wait fails at once rather than parking a worker.
MAX_RETRY_AFTER_S = 60.0
_DEFAULT_PORTS = {"http": 80, "https": 443}


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
        """Block until `tokens` (at most the capacity) are available; return the seconds waited."""
        if tokens > self.capacity:  # they would never be available: waiting would not end
            raise ValueError(f"cannot acquire {tokens} tokens from a bucket of {self.capacity}")
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


class _Reply:
    """A reply read in full: its status, headers and body."""

    __slots__ = ("status_code", "headers", "content")

    def __init__(self, status_code: int, headers, content: bytes):
        self.status_code = status_code
        self.headers = headers
        self.content = content

    def json(self):
        return jsonlib.loads(self.content)


class _Route:
    """How to reach one origin: where to connect, and what to add to each request."""

    __slots__ = ("connect", "prefix", "headers")

    def __init__(self, connect, prefix: str, headers: dict):
        self.connect = connect  # timeout -> a new http.client connection
        self.prefix = prefix  # "" for origin-form targets; the origin for a proxy's absolute form
        self.headers = headers


class ConnectionPool:
    """Keep-alive HTTP/1.1 connections, shared by the worker threads of one client.

    A connection returns to the pool once its reply is read in full and the
    server keeps it open, so the pool never holds more connections than it
    has had requests in flight at once. An idle connection is reused only if
    a zero-timeout check finds its socket not readable: a readable idle
    socket means the server closed it, or sent bytes no request asked for.
    A failure after that check is the request's failure; nothing is resent
    here. Proxies come from the environment once per origin. ``.netrc`` is
    never read, and redirects are never followed.
    """

    def __init__(self):
        self._idle: dict[tuple, list] = {}
        self._routes: dict[tuple, _Route] = {}
        self._lock = threading.Lock()

    def request(self, method, url, *, timeout, params=None, json=None, headers=None) -> _Reply:
        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port or _DEFAULT_PORTS.get(parts.scheme))
        query = "&".join(q for q in (parts.query, urlencode(params or {})) if q)
        route, conn = self._checkout(origin, timeout)
        target = f"{route.prefix}{parts.path or '/'}{'?' if query else ''}{query}"
        head = {**route.headers, **(headers or {})}
        body = None
        if json is not None:
            body = jsonlib.dumps(json).encode("utf-8")
            head["Content-Type"] = "application/json"
        try:
            conn.request(method, target, body=body, headers=head)
            resp = conn.getresponse()
            reply = _Reply(resp.status, resp.msg, resp.read())
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        return reply

    def _checkout(self, origin, timeout):
        """The origin's route, and an idle connection to it or a new one."""
        with self._lock:
            route = self._routes.get(origin)
            idle = self._idle.get(origin, [])
            while idle:
                conn = idle.pop()
                if conn.sock is not None and not select.select([conn.sock], [], [], 0)[0]:
                    conn.timeout = timeout
                    conn.sock.settimeout(timeout)
                    return route, conn
                conn.close()
        if route is None:
            route = _route(*origin)
            with self._lock:
                route = self._routes.setdefault(origin, route)
        return route, route.connect(timeout)

    def close(self) -> None:
        """Close every idle connection. The pool stays usable and reconnects on demand."""
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()


def _route(scheme: str, host: str | None, port: int | None) -> _Route:
    """Resolve how to reach an origin, honouring HTTP(S)_PROXY and NO_PROXY."""
    # Imported on first use: http.client pulls in ssl, and commands that
    # make no request should not pay for either.
    import http.client
    import ssl
    import urllib.request

    if scheme not in _DEFAULT_PORTS or not host:
        raise ValueError(f"not an http:// or https:// URL: {scheme}://{host}")
    tls = ssl.create_default_context() if scheme == "https" else None
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        if tls is None:
            return _Route(lambda t: http.client.HTTPConnection(host, port, timeout=t), "", {})
        return _Route(
            lambda t: http.client.HTTPSConnection(host, port, timeout=t, context=tls), "", {}
        )
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if via.username:
        import base64

        user = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user).decode("ascii")
    via_port = via.port or _DEFAULT_PORTS.get(via.scheme, 80)
    if tls is None:  # plain HTTP goes to the proxy as an absolute-form request
        return _Route(
            lambda t: http.client.HTTPConnection(via.hostname, via_port, timeout=t),
            f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}",
            auth,
        )

    def tunnel(t):  # HTTPS goes through a CONNECT tunnel
        conn = http.client.HTTPSConnection(via.hostname, via_port, timeout=t, context=tls)
        conn.set_tunnel(host, port, headers=auth)
        return conn

    return _Route(tunnel, "", {})


class ProviderClient:
    """What every provider API client holds: base URL, key, retries, rate limit
    and a pool of keep-alive connections.

    A subclass names the environment variable its key falls back to in
    ``key_env``; ``strip_slash`` drops a trailing ``/`` from the base URL for
    clients that append endpoint paths to it. Without a ``session``, the
    client makes its own ``ConnectionPool``, which ``close()`` (or leaving a
    ``with`` block) closes; a session passed in is its owner's to close.
    """

    key_env: str
    strip_slash = False

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        *,
        policy: RetryPolicy = RetryPolicy(),
        rate_limit: TokenBucket | None = None,
        session=None,
        sleep=time.sleep,
    ):
        key = api_key if api_key is not None else os.environ.get(self.key_env)
        if not key:
            raise ConfigError(f"{self.key_env} is not set and no api_key was given")
        parts = urlsplit(base_url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ConfigError(f"{base_url!r} is not an http:// or https:// URL")
        self.base_url = base_url.rstrip("/") if self.strip_slash else base_url
        self._key = key
        self._policy = policy
        self._rate_limit = rate_limit
        self._own_pool = ConnectionPool() if session is None else None
        self._session = session if session is not None else self._own_pool
        self._sleep = sleep

    def close(self) -> None:
        """Close the connections of the pool this client made; a session passed in stays open."""
        if self._own_pool is not None:
            self._own_pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _request(self, request_json, method: str, url: str, **kwargs) -> dict:
        """Take one rate-limit token, then issue the request through `request_json`.

        Callers pass their own module's ``request_json`` so the name is looked
        up at call time, where tests and tracers may have replaced it.
        """
        if self._rate_limit is not None:
            self._rate_limit.acquire()
        return request_json(
            method, url, policy=self._policy, session=self._session, sleep=self._sleep, **kwargs
        )


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
    401/403 raise AuthError immediately and are never retried, and so does
    any other status outside 2xx, 429 and 5xx, redirects included. Without a
    ``session``, the request opens one connection and closes it before
    returning.
    """
    from http.client import HTTPException  # on first use, like the connections (see _route)

    if session is None:
        own = ConnectionPool()
        try:
            return request_json(
                method, url, policy=policy, session=own, sleep=sleep, rng=rng,
                timeout=timeout, **kwargs,
            )
        finally:
            own.close()
    rng = rng if rng is not None else random.Random()
    failure = "no attempt made"
    status: int | None = None
    for attempt in range(1, max(1, policy.max_attempts) + 1):
        try:
            resp = session.request(method, url, timeout=timeout, **kwargs)
        except (OSError, HTTPException) as exc:
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
