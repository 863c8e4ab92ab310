"""HTTP plumbing shared by provider clients: the client base, a keep-alive
transport, retries and rate limiting."""

from __future__ import annotations

import json as jsonlib
import logging
import os
import random
import re
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
# A reply head (status line and fields) may be no longer; nor may any line of a chunked body.
MAX_HEAD = 64 * 1024

_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINE = re.compile(r"HTTP/1\.(\d) ([1-9]\d\d)(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # a method or field name (RFC 9110 §5.6.2)
# In a field value a CR, LF or NUL would end the field, and with it start one no caller wrote.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_NOT_VISIBLE_ASCII = re.compile(r"[^!-~]")  # what a request target or host may not hold


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


class ProtocolError(OSError):
    """A reply that breaks HTTP/1.1 framing: malformed, cut short, or with a
    head over MAX_HEAD bytes. An OSError, so it is retried like any transport fault."""


class _Fields(dict):
    """A reply's header fields by lower-case name; a repeated field's values
    are joined with ", " (RFC 9110 §5.3)."""

    def get(self, name, default=None):
        return super().get(name.lower(), default)


class _Reply:
    """A reply read in full: its status, headers and body."""

    __slots__ = ("status_code", "headers", "content")

    def __init__(self, status_code: int, headers: _Fields, content: bytes):
        self.status_code = status_code
        self.headers = headers
        self.content = content

    def json(self):
        return jsonlib.loads(self.content)


class _Connection:
    """One socket, and the bytes read from it past the part of the reply parsed so far."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> bool:
        """Append what the socket has to the buffer; False at the end of the stream."""
        data = self.sock.recv(65536)
        self.buf += data
        return bool(data)

    def _more(self) -> None:
        if not self._fill():
            raise ProtocolError("the server closed the connection before the reply ended")

    def reply_head(self) -> tuple[int, int, _Fields]:
        """The next final (non-1xx) reply head: HTTP minor version, status and fields."""
        while True:
            buf, pos = self.buf, 0
            while (end := _HEAD_END.search(buf, pos)) is None and len(buf) <= MAX_HEAD:
                pos = max(0, len(buf) - 3)
                self._more()
            if end is None or end.start() > MAX_HEAD:
                raise ProtocolError(f"reply head over {MAX_HEAD} bytes")
            status_line, *lines = buf[: end.start()].decode("latin-1").split("\n")
            del buf[: end.end()]
            status = _STATUS_LINE.fullmatch(status_line.removesuffix("\r"))
            if status is None:
                raise ProtocolError(f"bad status line {status_line[:80]!r}")
            if not status[2].startswith("1"):  # 1xx replies are interim; the final one follows
                break
        fields = _Fields()
        name = None
        for line in lines:
            line = line.removesuffix("\r")
            if line[:1] in (" ", "\t") and name is not None:  # obs-fold (RFC 9112 §5.2)
                fields[name] += " " + line.strip(" \t")
                continue
            name, colon, value = line.partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise ProtocolError(f"bad header field {line[:80]!r}")
            name, value = name.lower(), value.strip(" \t")
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        return int(status[1]), int(status[2]), fields

    def take(self, n: int) -> bytes:
        """The next n bytes."""
        buf = self.buf
        while len(buf) < n:
            self._more()
        data = bytes(buf[:n])
        del buf[:n]
        return data

    def line(self) -> bytes:
        """The next line, without its line ending."""
        buf, pos = self.buf, 0
        while (end := buf.find(b"\n", pos)) < 0:
            if len(buf) > MAX_HEAD:
                raise ProtocolError(f"line over {MAX_HEAD} bytes")
            pos = len(buf)
            self._more()
        line = bytes(buf[:end]).removesuffix(b"\r")
        del buf[: end + 1]
        return line

    def chunked(self) -> bytes:
        """A chunked body (RFC 9112 §7.1); chunk extensions and trailer fields are dropped."""
        body = bytearray()
        while True:
            line = self.line()
            size = line.split(b";", 1)[0].strip(b" \t")
            if not _CHUNK_SIZE.fullmatch(size):
                raise ProtocolError(f"bad chunk size line {line[:80]!r}")
            n = int(size, 16)
            if n == 0:
                break
            body += self.take(n)
            if self.line():
                raise ProtocolError("chunk data longer than its size")
        while self.line():  # the trailer section ends at an empty line
            pass
        return bytes(body)

    def rest(self) -> bytes:
        """Everything until the server closes the connection."""
        while self._fill():
            pass
        data = bytes(self.buf)
        self.buf.clear()
        return data

    def read_reply(self, method: str) -> tuple[_Reply, bool]:
        """The reply, framed as RFC 9112 §6.3 says, and whether the connection can be reused."""
        version, status, fields = self.reply_head()
        tokens = fields.get("connection")
        tokens = {t.strip() for t in tokens.lower().split(",")} if tokens else ()
        reuse = "close" not in tokens and (version > 0 or "keep-alive" in tokens)
        coding, length = fields.get("transfer-encoding"), fields.get("content-length")
        if method == "HEAD" or status in (204, 304):
            body = b""
        elif coding is not None:
            # a length beside a transfer coding, or a coding in HTTP/1.0, is faulty framing:
            # the body is read as the coding says, and the connection is not kept (§6.1)
            reuse = reuse and length is None and version > 0
            if coding.rsplit(",", 1)[-1].strip().lower() == "chunked":
                body = self.chunked()
            else:
                body, reuse = self.rest(), False
        elif length is not None:
            values = {v.strip(" \t") for v in length.split(",")}
            n = values.pop()
            if values or not (n.isascii() and n.isdigit()):
                raise ProtocolError(f"bad Content-Length {length[:80]!r}")
            body = self.take(int(n))
        else:
            body, reuse = self.rest(), False
        # bytes beyond the reply were asked for by no request
        return _Reply(status, fields, body), reuse and not self.buf


class _Route:
    """How to reach one origin: how to connect, the request-target prefix,
    and the rest of each request line with the fields every request carries."""

    __slots__ = ("connect", "prefix", "head")

    def __init__(self, connect, prefix: str, head: str):
        self.connect = connect  # timeout -> a connected socket, TLS-wrapped for https
        self.prefix = prefix  # "" for origin-form targets; the origin for a proxy's absolute form
        self.head = head


class ConnectionPool:
    """Keep-alive HTTP/1.1 connections, shared by the worker threads of one client.

    Each request goes out in one write; its reply is framed by status,
    ``Transfer-Encoding: chunked``, ``Content-Length`` or the end of the
    connection, and only the identity content coding is asked for. A
    connection returns to the pool once its reply is read in full and the
    server keeps it open, so the pool never holds more connections than it
    has had requests in flight at once. An idle connection is reused only if
    a zero-timeout check finds its socket not readable: a readable idle
    socket means the server closed it, or sent bytes no request asked for.
    A failure after that check is the request's failure; nothing is resent
    here. The timeout bounds each connect, send and receive. Proxies come
    from the ``*_proxy`` environment variables, once per origin. ``.netrc``
    is never read, and redirects are never followed.
    """

    def __init__(self):
        self._idle: dict[tuple, list[_Connection]] = {}
        self._routes: dict[tuple, _Route] = {}
        self._lock = threading.Lock()

    def request(self, method, url, *, timeout, params=None, json=None, headers=None) -> _Reply:
        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port or _DEFAULT_PORTS.get(parts.scheme))
        route = self._routes.get(origin)
        if route is None:
            route = _route(*origin)
            with self._lock:
                route = self._routes.setdefault(origin, route)
        query = "&".join(q for q in (parts.query, urlencode(params or {})) if q)
        target = f"{route.prefix}{parts.path or '/'}{'?' if query else ''}{query}"
        if not _TOKEN.fullmatch(method) or _NOT_VISIBLE_ASCII.search(target):
            # the message names neither: a search target carries the API key
            raise ValueError("request method or target has a space, a control or a non-ASCII character")
        fields = dict(headers or ())
        body = b""
        if json is not None:
            body = jsonlib.dumps(json).encode("utf-8")
            fields["Content-Type"] = "application/json"
            fields["Content-Length"] = len(body)
        head = [f"{method} {target}{route.head}"]
        for name, value in fields.items():
            value = str(value)
            if not _TOKEN.fullmatch(name) or _CONTROL.search(value):
                raise ValueError(f"header field {name!r} has a character that is not allowed")
            head.append(f"{name}: {value}\r\n")
        head.append("\r\n")
        data = "".join(head).encode("latin-1") + body
        conn = self._checkout(origin, timeout) or _Connection(route.connect(timeout))
        try:
            conn.sock.sendall(data)
            reply, reuse = conn.read_reply(method)
        except BaseException:
            conn.close()
            raise
        if reuse:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        else:
            conn.close()
        return reply

    def _checkout(self, origin, timeout) -> _Connection | None:
        """An idle connection to the origin that the server has not closed, or None."""
        with self._lock:
            idle = self._idle.get(origin)
            while idle:
                conn = idle.pop()
                if not _readable(conn.sock):
                    conn.sock.settimeout(timeout)
                    return conn
                conn.close()
        return None

    def close(self) -> None:
        """Close every idle connection. The pool stays usable and reconnects on demand."""
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()


def _readable(sock) -> bool:
    """Whether a socket has bytes, or the end of its stream, waiting to be read.

    ``select.poll`` takes any descriptor; ``select.select`` fails on one at or
    over FD_SETSIZE (1024), so it serves only where there is no ``poll``.
    """
    if not hasattr(select, "poll"):
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _route(scheme: str, host: str | None, port: int | None) -> _Route:
    """Resolve how to reach an origin, honouring the ``*_proxy`` environment variables."""
    # Imported on first use, so that commands that make no request do not pay for them.
    import socket

    if scheme not in _DEFAULT_PORTS or not host:
        raise ValueError(f"not an http:// or https:// URL: {scheme}://{host}")
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    name = f"[{name}]" if ":" in name else name
    if _NOT_VISIBLE_ASCII.search(name):
        raise ValueError(f"host {host!r} has a space or a control character")
    authority = f"{name}:{port}"  # a CONNECT target carries its port, default or not
    host_field = name if port == _DEFAULT_PORTS[scheme] else authority
    head = f" HTTP/1.1\r\nHost: {host_field}\r\nAccept-Encoding: identity\r\n"

    def dial(address, timeout):
        sock = socket.create_connection(address, timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    tls = None
    if scheme == "https":
        import ssl

        tls = ssl.create_default_context()
    via = _proxy(scheme, host)
    if via is None:
        if tls is None:
            return _Route(lambda t: dial((host, port), t), "", head)
        return _Route(lambda t: tls.wrap_socket(dial((host, port), t), server_hostname=host), "", head)
    auth = ""
    if via.username:
        import base64

        user = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
        auth = f"Proxy-Authorization: Basic {base64.b64encode(user).decode('ascii')}\r\n"
    proxy = (via.hostname, via.port or _DEFAULT_PORTS.get(via.scheme, 80))
    if tls is None:  # plain HTTP goes to the proxy as an absolute-form request
        return _Route(lambda t: dial(proxy, t), f"http://{host_field}", head + auth)

    def tunnel(t):  # HTTPS goes through a CONNECT tunnel (RFC 9110 §9.3.6)
        conn = _Connection(dial(proxy, t))
        try:
            conn.sock.sendall(
                f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n{auth}\r\n".encode("latin-1")
            )
            _, status, _ = conn.reply_head()
            if not 200 <= status < 300:
                raise ProtocolError(f"the proxy refused the tunnel to {authority}: HTTP {status}")
            return tls.wrap_socket(conn.sock, server_hostname=host)
        except BaseException:
            conn.close()
            raise

    return _Route(tunnel, "", head)


def _proxy(scheme: str, host: str):
    """The parsed proxy URL the environment names for this scheme and host, or None."""
    # urllib.request imports http.client, email and ssl: only a proxy setting pays for them.
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies_environment().get(scheme)
    if not proxy or urllib.request.proxy_bypass_environment(host):
        return None
    return urlsplit(proxy if "://" in proxy else f"http://{proxy}")


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
        if _CONTROL.search(key):  # it goes into a header field or the query
            raise ConfigError(f"the API key ({self.key_env} or api_key) has a control character")
        # checked before urlsplit, which drops tabs and line breaks without a word;
        # a non-ASCII host is left to the transport's IDNA encoding
        if _CONTROL.search(base_url) or " " in base_url:
            raise ConfigError(f"{base_url!r} has whitespace or a control character")
        parts = urlsplit(base_url)
        try:
            parts.port  # parsed here, so that a bad port fails before any request
        except ValueError as exc:
            raise ConfigError(f"{base_url!r} has a bad port: {exc}") from exc
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
    if session is None:
        own = ConnectionPool()
        try:
            return request_json(
                method, url, policy=policy, session=own, sleep=sleep, rng=rng,
                timeout=timeout, **kwargs,
            )
        finally:
            own.close()
    failure = "no attempt made"
    status: int | None = None
    for attempt in range(1, max(1, policy.max_attempts) + 1):
        try:
            resp = session.request(method, url, timeout=timeout, **kwargs)
        except OSError as exc:
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
            if rng is None:  # seeding from os.urandom costs ~9 us; most requests never retry
                rng = random.Random()
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
