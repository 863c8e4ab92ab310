"""Measure the client CPU that one search request costs over loopback.

    python3 scripts/http_cpu_probe.py [--reps 5]

Starts ``MockSearchServer`` in a process of its own, so server work never
shows in the client's CPU time, then sends 400 searches from 4 threads
through one ``SearchClient`` (its keep-alive pool). For each mock latency,
0 and 5 ms, it prints one JSON line: the client process's CPU microseconds
per request (user + system, from ``time.process_time``), as the median and
range over ``--reps`` repetitions. Client and server share
the host, and the connection is loopback: no real network cost is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REQUESTS = 400
THREADS = 4
LATENCIES_MS = (0.0, 5.0)
_SERVER = """
import sys
from taxotext.mockserver import MockSearchServer
names = {f"Entity {i}": [f"snippet {j} of entity {i}" for j in range(10)] for i in range(50)}
with MockSearchServer(names, api_key="k", latency=float(sys.argv[1])) as server:
    print(server.base_url, flush=True)
    sys.stdin.read()
"""


def probe(base_url: str) -> float:
    """Client CPU microseconds per request for one batch of searches."""
    from taxotext.search import SearchClient

    names = [f"Entity {i % 50}" for i in range(REQUESTS)]
    with SearchClient(base_url, api_key="k") as client, ThreadPoolExecutor(THREADS) as pool:
        list(pool.map(lambda name: client.search_entity(name, 10), names[:THREADS]))  # connect
        start = time.process_time()
        for results in pool.map(lambda name: client.search_entity(name, 10), names):
            assert len(results) == 10
        return (time.process_time() - start) / REQUESTS * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    for latency_ms in LATENCIES_MS:
        server = subprocess.Popen(
            [sys.executable, "-c", _SERVER, str(latency_ms / 1000)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            base_url = server.stdout.readline().strip()
            samples = [probe(base_url) for _ in range(args.reps)]
        finally:
            server.stdin.close()
            server.wait(timeout=30)
        print(json.dumps({
            "latency_ms": latency_ms, "requests": REQUESTS, "threads": THREADS,
            "client_cpu_us_per_request": {
                "median": round(statistics.median(samples), 1),
                "min": round(min(samples), 1), "max": round(max(samples), 1),
            },
            "transport": "loopback",
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
