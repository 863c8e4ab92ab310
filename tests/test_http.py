"""Retry, backoff, and rate-limit behavior against stub transports."""

from __future__ import annotations

import base64
import os
import random
import socket
import ssl
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from taxotext import http
from taxotext.errors import AuthError, HttpError, MalformedResponse
from taxotext.http import MAX_RETRY_AFTER_S, RetryPolicy, TokenBucket, request_json
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient

from conftest import wait_until


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


@pytest.mark.parametrize("rate,capacity,tokens", [(1.0, 0.5, 1.0), (2.0, None, 3.0)])
def test_token_bucket_rejects_more_tokens_than_it_holds(rate, capacity, tokens):
    clock = FakeClock()
    sleeps = []

    def bounded_sleep(seconds):
        # a bucket that waits for tokens it can never hold would sleep forever
        sleeps.append(seconds)
        if len(sleeps) > 100:
            raise RuntimeError("still waiting for tokens after 100 sleeps")
        clock.sleep(seconds)

    bucket = TokenBucket(rate=rate, capacity=capacity, clock=clock, sleep=bounded_sleep)
    with pytest.raises(ValueError, match="cannot acquire"):
        bucket.acquire(tokens)
    assert sleeps == []


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


@pytest.mark.parametrize("script,made", [
    ([StubResponse(200, {"ok": 1})], 0),
    ([StubResponse(503), StubResponse(500), StubResponse(200, {"ok": 1})], 1),
])
def test_jitter_rng_is_made_on_the_first_retry_only(monkeypatch, script, made):
    randoms = []
    make = random.Random

    def counted():
        randoms.append(make(0))
        return randoms[-1]

    monkeypatch.setattr(http.random, "Random", counted)
    sleeps = []
    assert request_json("GET", "http://unit.test/x", session=StubSession(script),
                        sleep=sleeps.append) == {"ok": 1}
    assert len(randoms) == made
    assert len(sleeps) == len(script) - 1


def test_retries_429_and_transport_errors():
    session = StubSession(
        [StubResponse(429), ConnectionResetError("reset"), StubResponse(200, {"ok": 2})]
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


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_redirects_are_not_followed_or_retried(status):
    session = StubSession([HeaderResponse(status, headers={"Location": "http://elsewhere.test/"})])
    with pytest.raises(HttpError) as err:
        _request(session, [])
    assert err.value.status == status
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
    made = []

    class ScriptedPool(http.ConnectionPool):
        def __init__(self):
            super().__init__()
            self.closed = False
            made.append(self)

        def request(self, method, url, **kwargs):
            return StubResponse(200, {"ok": 7})

        def close(self):
            self.closed = True
            super().close()

    monkeypatch.setattr(http, "ConnectionPool", ScriptedPool)
    assert request_json("GET", "http://unit.test/x") == {"ok": 7}
    assert [pool.closed for pool in made] == [True]


def test_request_without_session_leaves_no_connection_open():
    with MockSearchServer({"Acme": ["a"]}) as server:
        assert request_json("GET", server.base_url, params={"q": "Acme", "num": 1})
        wait_until(lambda: server.open_connections == 0)
        assert server.connection_count == 1


def test_importing_the_cli_does_not_import_requests():
    # Offline commands (build, train, predict, eval, sweep, ablate) never
    # make a request, so they should not pay for importing a transport:
    # not requests, and not http.client or the ssl module it pulls in.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import taxotext.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "taxotext.cli" in imported
    assert not [name for name in imported if name.split(".")[0] in ("requests", "urllib3")]
    assert not [name for name in imported if name in ("http.client", "ssl", "_ssl")]


# --- the keep-alive transport against the mock servers ----------------------------


def test_client_reuses_one_connection_and_closes_it():
    with MockSearchServer({"Acme": ["a", "b"]}, api_key="k") as server:
        with SearchClient(server.base_url, api_key="k") as client:
            for _ in range(5):
                assert [r.snippet for r in client.search_entity("Acme", 2)] == ["a", "b"]
            assert server.open_connections == 1
        wait_until(lambda: server.open_connections == 0)
    assert (server.request_count, server.connection_count) == (5, 1)


def test_connection_the_server_closed_is_not_reused():
    sleeps = []
    with MockSearchServer({"Acme": ["a"]}, api_key="k") as server:
        with SearchClient(server.base_url, api_key="k", sleep=sleeps.append) as client:
            client.search_entity("Acme", 1)
            with server._stats_lock:
                (sock,) = server._open
            sock.shutdown(socket.SHUT_RDWR)  # the server drops the idle connection
            wait_until(lambda: server.open_connections == 0)
            time.sleep(0.05)  # let the FIN reach the client's socket
            assert [r.snippet for r in client.search_entity("Acme", 1)] == ["a"]
    assert sleeps == []  # a fresh connection, not a retry
    assert (server.request_count, server.connection_count) == (2, 2)


def test_netrc_does_not_replace_the_bearer_key(tmp_path, monkeypatch):
    # a ~/.netrc entry for the LLM host must not swap the API key for Basic auth
    (tmp_path / ".netrc").write_text("machine 127.0.0.1 login someone password secret\n")
    (tmp_path / ".netrc").chmod(0o600)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("NETRC", raising=False)
    with MockLlmServer(lambda messages, model: "A summary.", api_key="k") as server:
        with LlmClient(server.base_url, api_key="k") as client:
            assert client.complete("hi", model="m", max_tokens=5) == "A summary."


@pytest.fixture()
def no_direct_connections(monkeypatch):
    """Refuse every connection not to loopback, recording the host asked for,
    so a test of proxy routing never resolves or reaches an outside host."""
    asked = []
    real = socket.create_connection

    def create_connection(address, *args, **kwargs):
        asked.append(address[0])
        if address[0] != "127.0.0.1":
            raise ConnectionRefusedError(f"refused in tests: {address[0]}")
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    return asked


def test_http_proxy_carries_the_request(monkeypatch, no_direct_connections):
    with MockSearchServer({"Acme": ["via the proxy"]}, api_key="k") as server:
        monkeypatch.setenv("HTTP_PROXY", server.base_url)
        with SearchClient("http://search.invalid", api_key="k") as client:
            results = client.search_entity("Acme", 1)
    assert [r.snippet for r in results] == ["via the proxy"]
    assert no_direct_connections == ["127.0.0.1"]
    assert server.request_count == 1


def test_no_proxy_bypasses_the_proxy(monkeypatch, no_direct_connections):
    with MockSearchServer({"Acme": ["via the proxy"]}, api_key="k") as server:
        monkeypatch.setenv("HTTP_PROXY", server.base_url)
        monkeypatch.setenv("NO_PROXY", "search.invalid")
        policy = RetryPolicy(max_attempts=1)
        with SearchClient("http://search.invalid", api_key="k", policy=policy) as client:
            with pytest.raises(HttpError):
                client.search_entity("Acme", 1)
    assert no_direct_connections == ["search.invalid"]
    assert server.request_count == 0


def test_proxy_credentials_go_as_basic_proxy_auth(monkeypatch, no_direct_connections):
    seen = []

    class RecordingProxy(MockSearchServer):
        def authorized(self, headers, query):
            seen.append(headers.get("Proxy-Authorization"))
            return super().authorized(headers, query)

    with RecordingProxy({"Acme": ["a"]}, api_key="k") as server:
        host_port = server.base_url.removeprefix("http://")
        monkeypatch.setenv("HTTP_PROXY", f"http://some%20one:p%40ss@{host_port}")
        with SearchClient("http://search.invalid", api_key="k") as client:
            client.search_entity("Acme", 1)
    assert seen == ["Basic " + base64.b64encode(b"some one:p@ss").decode("ascii")]


def test_pool_shared_by_many_threads_never_shares_a_connection():
    # two threads on one connection would read each other's replies
    names = [f"Entity {i}" for i in range(16)]
    results, errors = {}, []
    with MockSearchServer({name: [name] for name in names}, api_key="k") as server:
        # one attempt, so a transport error is not hidden by a retry
        policy = RetryPolicy(max_attempts=1)
        with SearchClient(server.base_url, api_key="k", policy=policy) as client:

            def work(name):
                try:
                    results[name] = {r.snippet for _ in range(20) for r in client.search_entity(name, 1)}
                except Exception as exc:  # reported through `errors`
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=work, args=(name,), daemon=True) for name in names
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        wait_until(lambda: server.open_connections == 0)
    assert not errors
    assert results == {name: {name} for name in names}
    assert server.request_count == 20 * len(names)
    assert server.connection_count <= len(names)


# --- reply framing, against a server that writes scripted bytes -------------------


class Scripted:
    """One scripted reply: its bytes, whether the server then closes the
    connection, and whether it writes them one byte per send."""

    def __init__(self, data: bytes, *, close=False, bytewise=False):
        self.data, self.close, self.bytewise = data, close, bytewise


class ScriptedServer:
    """A raw-socket server that answers each request head with the next scripted
    reply, and closes a connection when the script has run out."""

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/x"

    def __enter__(self):
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def __exit__(self, *exc):
        self._listener.close()

    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # the listener was closed
                return
            with self._lock:
                self.connections += 1
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        with sock:
            try:
                while True:
                    while b"\r\n\r\n" not in buf:
                        data = sock.recv(65536)
                        if not data:
                            return
                        buf += data
                    buf = buf.partition(b"\r\n\r\n")[2]  # the requests here carry no body
                    with self._lock:
                        if not self.script:
                            return
                        reply = self.script.pop(0)
                    if reply.bytewise:
                        for i in range(len(reply.data)):
                            sock.sendall(reply.data[i : i + 1])
                            time.sleep(0.0005)
                    else:
                        sock.sendall(reply.data)
                    if reply.close:
                        return
            except OSError:  # the client gave up on the connection
                return


OK = Scripted(b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\r\n{"ok":1}')
CHUNKED = (
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b'3;name=value\r\n{"o\r\n5 ; note="a;b" \r\nk":1}\r\n0;last\r\n'
    b"X-Checksum: abc\r\nX-Other: d\r\n\r\n"
)


@pytest.mark.parametrize(
    "script,calls,connections,retries",
    [
        ([Scripted(CHUNKED), OK], 2, 1, 0),
        ([Scripted(b'HTTP/1.1 200 OK\r\n\r\n{"ok":1}', close=True), OK], 2, 2, 0),
        ([Scripted(b'HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n{"ok":1}'), OK], 2, 2, 0),
        ([Scripted(b"HTTP/1.1 100 Continue\r\n\r\n" + OK.data), OK], 2, 1, 0),
        ([Scripted(OK.data, bytewise=True), OK], 2, 1, 0),
        ([Scripted(b'HTTP/1.1 200 OK\r\nContent-Length: 8, 8\r\n\r\n{"ok":1}'), OK], 2, 1, 0),
        ([Scripted(b'HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n{"ok', close=True), OK], 1, 2, 1),
        ([Scripted(b'HTTP/1.1 2OO OK\r\nContent-Length: 8\r\n\r\n{"ok":1}'), OK], 1, 2, 1),
        ([Scripted(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x8\r\n"), OK], 1, 2, 1),
        (
            [Scripted(b'HTTP/1.1 200 OK\r\nContent-Length: 8\r\nContent-Length: 9\r\n\r\n{"ok":1}'), OK],
            1, 2, 1,
        ),
    ],
    ids=[
        "chunked-with-extensions-and-trailers", "close-delimited", "http-1.0-not-reused",
        "100-continue-first", "one-byte-per-send", "repeated-equal-content-length",
        "body-cut-short", "bad-status-line", "bad-chunk-size", "conflicting-content-lengths",
    ],
)
def test_reply_framing(script, calls, connections, retries):
    # Every call must read {"ok": 1}, on the first attempt or on its retry; a
    # connection is reused only after a reply whose framing says where it ended.
    sleeps = []
    pool = http.ConnectionPool()
    with ScriptedServer(script) as server:
        try:
            for _ in range(calls):
                assert request_json(
                    "GET", server.url, session=pool, sleep=sleeps.append, timeout=10,
                    policy=RetryPolicy(max_attempts=2, base_backoff=0.0),
                ) == {"ok": 1}
        finally:
            pool.close()
    assert (server.connections, len(sleeps)) == (connections, retries)


def test_reply_head_over_the_limit_fails_without_waiting_for_more():
    head = b"HTTP/1.1 200 OK\r\nX-Padding: " + b"a" * (70 * 1024) + b"\r\n"  # never ends
    started = time.monotonic()
    with ScriptedServer([Scripted(head)]) as server:
        with pytest.raises(HttpError, match="head over"):
            request_json("GET", server.url, policy=RetryPolicy(max_attempts=1), timeout=20)
    assert time.monotonic() - started < 10


def test_lower_case_retry_after_is_honoured():
    too_many = Scripted(b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 7\r\nContent-Length: 2\r\n\r\n{}")
    sleeps = []
    with ScriptedServer([too_many, OK]) as server:
        assert request_json("GET", server.url, sleep=sleeps.append) == {"ok": 1}
    assert sleeps == [7.0]


@pytest.mark.parametrize(
    "path,headers",
    [
        ("/x", {"X-Note": "a\r\nX-Injected: 1"}),
        ("/x", {"X-Note": "a\nX-Injected: 1"}),
        ("/x", {"X-Note": "a\x00"}),
        ("/x", {"X-Note\r\nX-Injected": "1"}),
        ("/x y", {}),
        ("/x\x00y", {}),
    ],
    ids=["crlf-in-value", "lf-in-value", "nul-in-value", "crlf-in-name", "space-in-target",
         "nul-in-target"],
)
def test_request_with_a_line_break_or_nul_is_refused_before_sending(path, headers):
    with ScriptedServer([OK]) as server:
        url = server.url.removesuffix("/x") + path
        with pytest.raises(ValueError):
            http.ConnectionPool().request("GET", url, timeout=5, headers=headers)
        time.sleep(0.05)  # a connection, had one been made, would have been accepted by now
    assert server.connections == 0


def test_stale_check_takes_a_descriptor_over_1024():
    # select.select() raises ValueError for a descriptor at or over FD_SETSIZE
    resource = pytest.importorskip("resource")
    high = 1500
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < high + 100:
        pytest.skip("the soft RLIMIT_NOFILE is below 1600")
    try:
        os.fstat(high)
    except OSError:
        pass
    else:
        pytest.skip(f"descriptor {high} is in use")

    def pooled(client):
        (conn,) = [conn for conns in client._session._idle.values() for conn in conns]
        return conn

    with MockSearchServer({"Acme": ["a"]}, api_key="k") as server:
        with SearchClient(server.base_url, api_key="k") as client:
            client.search_entity("Acme", 1)
            conn = pooled(client)
            os.dup2(conn.sock.fileno(), high)
            low, conn.sock = conn.sock, socket.socket(fileno=high)
            low.close()
            assert [r.snippet for r in client.search_entity("Acme", 1)] == ["a"]
            assert pooled(client).sock.fileno() == high  # checked, then reused
            assert server.connection_count == 1
            with server._stats_lock:
                (sock,) = server._open
            sock.shutdown(socket.SHUT_RDWR)  # the check must still see the server drop it
            wait_until(lambda: server.open_connections == 0)
            time.sleep(0.05)
            assert [r.snippet for r in client.search_entity("Acme", 1)] == ["a"]
        assert server.connection_count == 2


def test_plain_http_request_imports_no_tls_proxy_or_email_module():
    # ssl, urllib.request (proxy lookup) and http.client's email parser cost
    # start-up time; a plain-HTTP run with no proxy configured needs none of them
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(src)
    with MockSearchServer({"Acme": ["a"]}, api_key="k") as server:
        code = (
            "import sys\n"
            "from taxotext.search import SearchClient\n"
            f"with SearchClient({server.base_url!r}, api_key='k') as client:\n"
            "    assert client.search_entity('Acme', 1)[0].snippet == 'a'\n"
            "print(*[m for m in ('http.client', 'email.parser', 'urllib.request', 'ssl')"
            " if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert server.request_count == 1
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""


# --- HTTPS, directly and through a CONNECT proxy -------------------------------------

# A self-signed certificate for localhost and 127.0.0.1, valid for a century:
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes -days 36500
#     -subj /CN=localhost -addext basicConstraints=critical,CA:TRUE
#     -addext keyUsage=critical,digitalSignature,keyCertSign -addext extendedKeyUsage=serverAuth
#     -addext subjectAltName=DNS:localhost,IP:127.0.0.1 -keyout localhost.key -out localhost.crt
TLS_DIR = Path(__file__).resolve().parent / "tls"


class TlsSearchServer(MockSearchServer):
    """The search mock behind TLS, presenting the certificate in tests/tls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_DIR / "localhost.crt", TLS_DIR / "localhost.key")
        self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]


@pytest.fixture()
def trust_test_certificate(monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "localhost.crt"))


def test_https_reuses_one_tls_connection(trust_test_certificate, no_direct_connections):
    with TlsSearchServer({"Acme": ["a"]}, api_key="k") as server:
        with SearchClient(f"https://127.0.0.1:{server.port}", api_key="k") as client:
            for _ in range(5):
                assert [r.snippet for r in client.search_entity("Acme", 1)] == ["a"]
    assert (server.request_count, server.connection_count) == (5, 1)


def test_https_certificate_for_another_name_fails(trust_test_certificate, monkeypatch):
    real = socket.create_connection
    monkeypatch.setattr(  # other.test reaches the server, whose certificate does not name it
        socket, "create_connection", lambda address, *a, **k: real(("127.0.0.1", address[1]), *a, **k)
    )
    policy = RetryPolicy(max_attempts=1)
    with TlsSearchServer({"Acme": ["a"]}, api_key="k") as server:
        with SearchClient(f"https://other.test:{server.port}", api_key="k", policy=policy) as client:
            with pytest.raises(HttpError, match="Hostname mismatch"):
                client.search_entity("Acme", 1)
    assert server.request_count == 0


class ConnectProxy:
    """A proxy that serves CONNECT only: it records each request head and
    pipes the tunnel to that port on 127.0.0.1."""

    def __init__(self):
        self.heads = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def __enter__(self):
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def __exit__(self, *exc):
        self._listener.close()

    def _accept(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._tunnel, args=(client,), daemon=True).start()

    def _tunnel(self, client):
        head = b""
        while b"\r\n\r\n" not in head:
            data = client.recv(4096)
            if not data:
                client.close()
                return
            head += data
        self.heads.append(head.partition(b"\r\n\r\n")[0].decode("ascii"))
        port = int(head.split(b" ", 2)[1].rsplit(b":", 1)[1])
        upstream = socket.socket()  # not socket.create_connection, which a test may record
        upstream.connect(("127.0.0.1", port))
        client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
        for src, dst in ((client, upstream), (upstream, client)):
            threading.Thread(target=self._pipe, args=(src, dst), daemon=True).start()

    @staticmethod
    def _pipe(src, dst):
        try:
            while data := src.recv(65536):
                dst.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                sock.close()


def test_https_goes_through_a_connect_proxy(
    trust_test_certificate, no_direct_connections, monkeypatch
):
    with TlsSearchServer({"Acme": ["tunnelled"]}, api_key="k") as server, ConnectProxy() as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.url)
        with SearchClient(f"https://localhost:{server.port}", api_key="k") as client:
            for _ in range(2):
                assert [r.snippet for r in client.search_entity("Acme", 1)] == ["tunnelled"]
    authority = f"localhost:{server.port}"
    assert proxy.heads == [f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}"]
    assert no_direct_connections == ["127.0.0.1"]  # the proxy, once
    assert (server.request_count, server.connection_count) == (2, 1)
