"""In-process fixture servers speaking the provider wire formats.

Deterministic stand-ins for the search endpoint and the chat/fine-tune
endpoints, used by the test suite and the demo scripts. Servers record
request counts and peak concurrency so callers can assert cache hits and
parallelism bounds. Not a general-purpose HTTP mock.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class _Httpd(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5, which can drop part of a
    # burst of simultaneous connects from a wide client pool.
    request_queue_size = 64


class _ServerBase:
    def __init__(self, handler_cls, latency: float = 0.0):
        self.latency = latency
        self.request_count = 0
        self.peak_in_flight = 0
        self._in_flight = 0
        self._stats_lock = threading.Lock()
        self._fail_budget = 0
        self._httpd = _Httpd(("127.0.0.1", 0), handler_cls)
        self._httpd.owner = self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()

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


def _counted(respond):
    """Serve a request, counted as in flight until its reply starts.

    ``respond(self, fail)`` gets whether this request should fail with 500.
    ``_send_json`` stops the count; the ``finally`` only covers a handler
    that raised before replying.
    """

    @functools.wraps(respond)
    def serve(self):
        self._counting = True
        fail = self.server.owner._enter_request()
        try:
            respond(self, fail)
        finally:
            self._leave()

    return serve


class _Handler(BaseHTTPRequestHandler):
    _counting = False

    def log_message(self, *args):  # keep test output quiet
        pass

    def _leave(self):
        if self._counting:
            self._counting = False
            self.server.owner._exit_request()

    def _send_json(self, payload: dict, status: int = 200):
        body = json.dumps(payload).encode("utf-8")
        # Stop counting the request before its reply goes out: a client may
        # send its next request as soon as it has read this reply, possibly
        # before this thread runs again, and that is not concurrency.
        self._leave()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        return self.rfile.read(length) if length else b""


class MockSearchServer(_ServerBase):
    """Serves ``organic_results`` for registered entity names.

    results: name -> list of snippet strings (titles/links are derived).
    """

    def __init__(self, results: dict[str, list[str]], *, api_key: str | None = None, latency: float = 0.0):
        self.results = results
        self.api_key = api_key

        owner = self

        class Handler(_Handler):
            @_counted
            def do_GET(self, fail):
                if owner.latency:
                    time.sleep(owner.latency)
                if fail:
                    self._send_json({"error": "injected failure"}, status=500)
                    return
                query = parse_qs(urlparse(self.path).query)
                if owner.api_key is not None and query.get("api_key", [None])[0] != owner.api_key:
                    self._send_json({"error": "bad key"}, status=401)
                    return
                name = query.get("q", [""])[0]
                num = int(query.get("num", ["10"])[0])
                snippets = owner.results.get(name, [])
                organic = [
                    {
                        "position": i + 1,
                        "title": f"{name} - result {i + 1}",
                        "link": f"https://example.test/{i + 1}",
                        "snippet": s,
                    }
                    for i, s in enumerate(snippets[:num])
                ]
                self._send_json({"organic_results": organic})

        super().__init__(Handler, latency)


class MockLlmServer(_ServerBase):
    """Serves /chat/completions, /files, and /fine_tuning/jobs.

    reply: callable(messages, model) -> completion string. Fine-tune jobs
    walk through ``job_statuses`` one status per poll, ending with a
    ``fine_tuned_model`` id when they succeed.
    """

    def __init__(
        self,
        reply,
        *,
        api_key: str | None = None,
        job_statuses: tuple[str, ...] = ("running", "succeeded"),
        fine_tuned_model: str = "ft:mock:1",
        latency: float = 0.0,
    ):
        self.reply = reply
        self.api_key = api_key
        self.job_statuses = job_statuses
        self.fine_tuned_model = fine_tuned_model
        self.uploads: list[bytes] = []
        self.jobs: dict[str, dict] = {}
        self.chat_requests: list[dict] = []

        owner = self

        class Handler(_Handler):
            def _authorized(self) -> bool:
                if owner.api_key is None:
                    return True
                return self.headers.get("Authorization") == f"Bearer {owner.api_key}"

            @_counted
            def do_POST(self, fail):
                if owner.latency:
                    time.sleep(owner.latency)
                if fail:
                    self._send_json({"error": "injected failure"}, status=500)
                    return
                if not self._authorized():
                    self._send_json({"error": "bad key"}, status=401)
                    return
                path = urlparse(self.path).path
                body = self._read_body()
                if path == "/chat/completions":
                    payload = json.loads(body)
                    owner.chat_requests.append(payload)
                    content = owner.reply(payload["messages"], payload.get("model", ""))
                    self._send_json(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    )
                elif path == "/files":
                    owner.uploads.append(body)
                    self._send_json({"id": f"file-{len(owner.uploads)}"})
                elif path == "/fine_tuning/jobs":
                    job_id = f"ftjob-{len(owner.jobs) + 1}"
                    owner.jobs[job_id] = {"polls": 0, "request": json.loads(body)}
                    self._send_json({"id": job_id, "status": "queued"})
                else:
                    self._send_json({"error": "not found"}, status=404)

            @_counted
            def do_GET(self, fail):
                if fail:
                    self._send_json({"error": "injected failure"}, status=500)
                    return
                if not self._authorized():
                    self._send_json({"error": "bad key"}, status=401)
                    return
                path = urlparse(self.path).path
                if path.startswith("/fine_tuning/jobs/"):
                    job_id = path.rsplit("/", 1)[1]
                    job = owner.jobs.get(job_id)
                    if job is None:
                        self._send_json({"error": "unknown job"}, status=404)
                        return
                    statuses = owner.job_statuses
                    state = statuses[min(job["polls"], len(statuses) - 1)]
                    job["polls"] += 1
                    payload = {"id": job_id, "status": state}
                    if state == "succeeded":
                        payload["fine_tuned_model"] = owner.fine_tuned_model
                    self._send_json(payload)
                else:
                    self._send_json({"error": "not found"}, status=404)

        super().__init__(Handler, latency)
