"""In-process fixture servers speaking the provider wire formats.

Deterministic stand-ins for the search endpoint and the chat-completions
endpoint, used by the test suite and the demo scripts. Both answer over
HTTP/1.1 keep-alive. Servers record request counts, peak concurrency and
the connections they accept, so callers can assert cache hits,
parallelism bounds and connection reuse. Not a general-purpose HTTP mock.

Every request to either server, GET or POST, takes one path: it is
counted, its body is read, it sleeps ``latency``, and it answers 500
while a ``fail_next`` budget lasts, 401 when ``authorized(headers,
query)`` rejects its key, and otherwise the ``(payload, status)`` that
``respond(method, path, query, body)`` returns. A server class defines
only those two methods. The request stops counting as in flight once its
reply is ready, before it is written, and also when ``respond`` raises.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive, as real providers speak it. Without TCP_NODELAY the
    # headers and body, written apart, wait about 40 ms on a delayed ACK.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output quiet
        pass

    def setup(self):
        super().setup()
        self.server.owner._connected(self.connection, True)

    def finish(self):
        try:
            super().finish()
        finally:
            self.server.owner._connected(self.connection, False)

    def _serve(self):
        owner = self.server.owner
        fail = owner._enter_request()
        try:
            # Read the body on every path: left in a kept-alive socket, it
            # would be taken for the start of the next request.
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length) if length else b""
            if owner.latency:
                time.sleep(owner.latency)
            url = urlparse(self.path)
            query = parse_qs(url.query)
            if fail:
                payload, status = {"error": "injected failure"}, 500
            elif not owner.authorized(self.headers, query):
                payload, status = {"error": "bad key"}, 401
            else:
                payload, status = owner.respond(self.command, url.path, query, body)
            reply = json.dumps(payload).encode("utf-8")
        finally:
            # Stop counting the request before its reply goes out: a client
            # may send its next request as soon as it has read this reply,
            # possibly before this thread runs again, and that is not
            # concurrency.
            owner._exit_request()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    do_GET = do_POST = _serve


class _Httpd(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5, which can drop part of a
    # burst of simultaneous connects from a wide client pool.
    request_queue_size = 64


class _ServerBase:
    def __init__(self, latency: float = 0.0):
        self.latency = latency
        self.request_count = 0
        self.connection_count = 0  # connections accepted
        self._open: set[socket.socket] = set()
        self.peak_in_flight = 0
        self._in_flight = 0
        self._stats_lock = threading.Lock()
        self._fail_budget = 0
        self._httpd = _Httpd(("127.0.0.1", 0), _Handler)
        self._httpd.owner = self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread.start()
        return self

    @property
    def open_connections(self) -> int:
        """Connections accepted and not yet closed."""
        with self._stats_lock:
            return len(self._open)

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        with self._stats_lock:
            still_open = list(self._open)
        for sock in still_open:  # end the handler threads that wait on idle clients
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def fail_next(self, n: int):
        """Make the next n requests return HTTP 500."""
        with self._stats_lock:
            self._fail_budget = n

    def _enter_request(self) -> bool:
        """Track stats; returns True when this request should fail with 500."""
        with self._stats_lock:
            self.request_count += 1
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            if self._fail_budget > 0:
                self._fail_budget -= 1
                return True
        return False

    def _exit_request(self):
        with self._stats_lock:
            self._in_flight -= 1

    def _connected(self, sock, is_open: bool):
        with self._stats_lock:
            if is_open:
                self.connection_count += 1
                self._open.add(sock)
            else:
                self._open.discard(sock)


class MockSearchServer(_ServerBase):
    """Serves ``organic_results`` for registered entity names.

    results: name -> list of snippet strings (titles/links are derived).
    """

    def __init__(self, results: dict[str, list[str]], *, api_key: str | None = None, latency: float = 0.0):
        self.results = results
        self.api_key = api_key
        super().__init__(latency)

    def authorized(self, headers, query):
        return self.api_key is None or query.get("api_key", [None])[0] == self.api_key

    def respond(self, method, path, query, body):
        if method != "GET":
            return {"error": "not found"}, 404
        name = query.get("q", [""])[0]
        num = int(query.get("num", ["10"])[0])
        organic = [
            {
                "position": i + 1,
                "title": f"{name} - result {i + 1}",
                "link": f"https://example.test/{i + 1}",
                "snippet": s,
            }
            for i, s in enumerate(self.results.get(name, [])[:num])
        ]
        return {"organic_results": organic}, 200


class MockLlmServer(_ServerBase):
    """Serves /chat/completions.

    reply: callable(messages, model) -> completion string. Every chat
    request body is kept in ``chat_requests``.
    """

    def __init__(self, reply, *, api_key: str | None = None, latency: float = 0.0):
        self.reply = reply
        self.api_key = api_key
        self.chat_requests: list[dict] = []
        super().__init__(latency)

    def authorized(self, headers, query):
        return self.api_key is None or headers.get("Authorization") == f"Bearer {self.api_key}"

    def respond(self, method, path, query, body):
        if method == "POST" and path == "/chat/completions":
            payload = json.loads(body)
            self.chat_requests.append(payload)
            content = self.reply(payload["messages"], payload.get("model", ""))
            return {"choices": [{"message": {"role": "assistant", "content": content}}]}, 200
        return {"error": "not found"}, 404
