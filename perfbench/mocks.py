"""Out-of-process mock search and LLM servers for the benchmark.

Run as a separate process so server work never competes for the
pipeline's interpreter lock:

    python3 perfbench/mocks.py FIXTURES TASK SEARCH_LATENCY_S LLM_LATENCY_S

Prints one JSON line with the two base URLs, then serves until stdin
closes. Each ``stats`` line on stdin is answered with one JSON line holding
each server's request count and peak in-flight requests since the previous
``stats``; the counters are then reset.
"""

from __future__ import annotations

import json
import sys


def _reset(server) -> dict:
    with server._stats_lock:
        stats = {"requests": server.request_count, "peak_in_flight": server.peak_in_flight}
        server.request_count = 0
        server.peak_in_flight = 0
    if hasattr(server, "chat_requests"):
        server.chat_requests.clear()
    return stats


def main(argv: list[str]) -> int:
    fixtures_path, task, search_latency, llm_latency = argv
    from taxotext.mockserver import MockLlmServer, MockSearchServer
    from taxotext.summarize import PROMPT_TEMPLATES

    with open(fixtures_path, encoding="utf-8") as fh:
        fixtures = json.load(fh)
    template = PROMPT_TEMPLATES["GPT_SIC" if task == "SIC" else "GPT_HC"]
    by_prompt = {template.fill(name): text for name, text in fixtures["summaries"].items()}

    def reply(messages, model):
        # An unknown prompt gets an empty completion, which the pipeline
        # reports as a failure.
        return by_prompt.get(messages[-1]["content"], "")

    search = MockSearchServer(fixtures["snippets"], latency=float(search_latency))
    llm = MockLlmServer(reply, latency=float(llm_latency))
    with search, llm:
        print(json.dumps({"search": search.base_url, "llm": llm.base_url}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps({"search": _reset(search), "llm": _reset(llm)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
