"""One pipeline process: set up, then run a chain of CLI commands.

    python3 perfbench/child.py JOB.json

The job names the source tree, the commands (argument lists for
``taxotext.cli.main``), the mock server URLs that must be reachable and
whether to trace. The process prints ``READY`` once the interpreter,
``taxotext``, the config and the scheme are loaded and the servers answer;
the parent times set-up up to that line. Timings, CPU, peak RSS, each
command's exit code and printed output, and any spans go to the job's
``out`` file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import socket
import sys
import time
import traceback
from pathlib import Path
from urllib.parse import urlparse


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _set_up(job: dict):
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import taxotext
    from taxotext import cli
    from taxotext.config import load_config
    from taxotext.taxonomy import load_scheme

    if Path(taxotext.__file__).resolve().parent != src / "taxotext":
        raise RuntimeError(f"imported taxotext from {taxotext.__file__}, not from {src}")
    load_scheme(load_config(job["config"]).task)
    for url in job["servers"]:
        parts = urlparse(url)
        socket.create_connection((parts.hostname, parts.port), timeout=5).close()
    return cli


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    cli = _set_up(job)
    print("READY", flush=True)

    tracer = None
    if job["trace"]:
        import spans  # perfbench/, the script's own directory

        tracer = spans.Tracer()
        spans.install(tracer)

    steps = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for step in job["chain"]:
        command, argv = step["command"], step["argv"]
        out = io.StringIO()
        span = tracer.begin(f"cli.{command}") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:  # a crash is a failed command, reported to the parent
            code = -1
            out.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        steps.append({"command": command, "code": code, "wall_s": wall, "stdout": out.getvalue()})
    chain_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "steps": steps,
        "chain_s": chain_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["spans"] = [vars(s) for s in tracer.spans]
        result["counters"] = tracer.counters
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
